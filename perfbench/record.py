"""Record the expected outputs in ``expected.json``.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record.py

For every workload it runs each operation once on the instances in
generator order, and each ``allocate`` also on a shuffled copy.  It refuses
to record unless the shuffled outputs match, every property passes, no
manipulation is found, and instances with at most 12 agents agree with the
subset-enumeration oracle.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import checks
import run
import workloads


def record(workload, main, workdir: str) -> dict:
    from leximinflow.fileio import save_instance

    canonical = workloads.canonical_instances(workload)
    shuffled = workloads.seeded_instances(workload, 0)
    entries = {key: {"fingerprint": workloads.fingerprint(inst)} for key, inst in canonical.items()}

    def cli(instance, argv_for):
        """Output of the operation ``argv_for(path)`` on ``instance``."""
        path = os.path.join(workdir, "instance.json")
        save_instance(instance, path)
        argv = argv_for(path)
        _, code, stdout, error = run.run_op(main, argv)
        if error is not None or code != 0:
            raise SystemExit(f"{workload.name} {argv}: exit {code}, {error}")
        return json.loads(stdout)

    for key, *_ in workload.pool:
        views = [checks.allocate_view(cli(inst[key], lambda p: ["allocate", p, "--output", "json"]))
                 for inst in (canonical, shuffled)]
        if views[0] != views[1]:
            raise SystemExit(f"{key}: allocate output depends on agent/object order")
        if len(canonical[key].agents) <= checks.ORACLE_MAX_AGENTS:
            oracle = checks.oracle_view(canonical[key])
            if any(views[0][f] != oracle[f] for f in oracle):
                raise SystemExit(f"{key}: allocate disagrees with the oracle")
        audit = cli(canonical[key], lambda p: run.audit_argv(workload, p))
        if not all(p["passed"] for p in audit["properties"]):
            raise SystemExit(f"{key}: audit failed")
        entries[key].update(views[0], audit_skipped=audit["skipped"])

    manipulations = {}
    for m in workload.manipulations:
        key, _, _, coalition, budget = m
        out = cli(canonical[key], lambda p: ["manipulate", p, "--output", "json",
                                             "--coalition", str(coalition), "--budget", str(budget)])
        if out["counterexample"] is not None:
            raise SystemExit(f"{key}: manipulation found")
        manipulations[workloads.manipulation_id(m)] = {"runs": out["runs"], "space": out["space"]}
    return {"instances": entries, "manipulations": manipulations}


def main() -> int:
    root = os.getcwd()
    run.import_package(root)
    from leximinflow.cli import main as cli_main

    workdir = os.path.join(root, run.WORKDIR, "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        doc = {}
        for name, workload in workloads.WORKLOADS.items():
            print(f"recording {name}", file=sys.stderr, flush=True)
            doc[name] = record(workload, cli_main, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, run.WORKDIR))
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))
    return 0


def dumps(doc: dict) -> str:
    """JSON with one line per instance or manipulation, for readable diffs."""
    workload_blocks = []
    for name, entry in sorted(doc.items()):
        sections = []
        for section in ("instances", "manipulations"):
            lines = ",\n".join(
                f"   {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                for key, value in sorted(entry[section].items())
            )
            sections.append(f"  {json.dumps(section)}: {{\n{lines}\n  }}")
        workload_blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(sections) + "\n }")
    return "{\n" + ",\n".join(workload_blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
