"""leximinflow benchmark: whole CLI operations, in-process, on generated files.

Run from the repository root:

    python3 perfbench/run.py --workload tiers --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

One operation is one ``leximinflow.cli.main`` call (``allocate``, ``audit``
or ``manipulate``, all with ``--output json``) on an instance file written
during set-up.  A pass runs ``allocate`` and ``audit`` once on every instance
of the workload's pool and then its ``manipulate`` operations, each kind in a
seeded order.  Passes repeat for about ``--seconds`` (at least three), in one
process and one thread: a closed loop with one client.  Every output is
checked after the timed region.

Per operation the benchmark keeps the fastest of its measured wall times over
the passes (min-of-N), and the latency metrics are percentiles over the
operations of the pool.  The host is shared: most of the time it runs about
1.8x slower than its best, with short fast spells, so the fastest run of an
operation is the steadiest figure from run to run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (per traced pass)
and the tracing overhead: the traced end-to-end metrics minus the untraced
ones.  ``--workload all`` runs each workload in a fresh interpreter, one after
the other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run labels.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple, Optional

import checks
import spans
import stats
import workloads

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
WORKDIR = ".bench_work"
MIN_PASSES = 3
PASSES_PER_SETUP = 2
# The audit's own sampling seed is fixed: a seeded substructure check removes
# random agent subsets, and the oracle's cost grows as 2^(agents left).
AUDIT_SEED = 0
KINDS = ("allocate", "audit", "manipulate")


def git_commit(root: str) -> str:
    """HEAD commit read from ``.git``, or "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_package(root: str) -> None:
    """Import leximinflow from ``<root>/src``, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("leximinflow")
    except ImportError as exc:
        raise SystemExit(f"cannot import leximinflow from {src}: {exc}")
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"leximinflow imported from {package.__file__}, not {src}")


def set_up(workload, seed: int, workdir: str):
    """Import the package afresh, generate the instances, write their files."""
    for name in [m for m in sys.modules if m == "leximinflow" or m.startswith("leximinflow.")]:
        del sys.modules[name]
    # Every set-up starts from the same collector state: garbage left by the
    # previous pass is not charged to it.
    gc.collect()
    start = time.perf_counter()
    fileio = importlib.import_module("leximinflow.fileio")
    importlib.import_module("leximinflow.cli")
    instances = workloads.seeded_instances(workload, seed)
    paths = {}
    for key, instance in instances.items():
        paths[key] = os.path.join(workdir, f"{key}.json")
        fileio.save_instance(instance, paths[key])
    return time.perf_counter() - start, instances, paths


def check_fingerprints(workload, expected: dict) -> None:
    got = {k: workloads.fingerprint(i) for k, i in workloads.canonical_instances(workload).items()}
    want = {k: entry["fingerprint"] for k, entry in expected["instances"].items()}
    if got != want:
        drift = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        raise SystemExit(
            f"instances differ from expected.json ({', '.join(drift[:5])}); "
            "run perfbench/record.py at a trusted commit"
        )


def solve_labels(workload, instances: dict) -> dict:
    """Tier count and max-flow solves per pool instance, from one untimed
    solve each."""
    leximin = sys.modules["leximinflow.leximin"]
    original = leximin.max_flow
    solves = 0

    def counting(network):
        nonlocal solves
        solves += 1
        return original(network)

    labels = {}
    leximin.max_flow = counting
    try:
        for key, *_ in workload.pool:
            solves = 0
            _, profile = leximin.lexicographic_allocation(instances[key])
            labels[key] = {
                "agents": len(instances[key].agents),
                "tiers": profile.k,
                "max_flow_solves": solves,
            }
    finally:
        leximin.max_flow = original
    return labels


def multi_tier_guard(workload, labels: dict) -> None:
    if workload.tier_floor is None:
        return
    median = statistics.median(entry["tiers"] for entry in labels.values())
    if median < workload.tier_floor:
        raise SystemExit(
            f"multi-tier guard: median tier count {median} of the {workload.name} pool"
            f" is below the floor {workload.tier_floor}"
        )


def pass_ops(workload, paths: dict, rng: random.Random) -> list:
    """One pass: (kind, key, argv) for every operation of the workload."""
    pool = [key for key, *_ in workload.pool]
    rng.shuffle(pool)
    ops = [("allocate", key, ["allocate", paths[key], "--output", "json"]) for key in pool]
    rng.shuffle(pool)
    ops += [("audit", key, audit_argv(workload, paths[key])) for key in pool]
    manipulations = list(workload.manipulations)
    rng.shuffle(manipulations)
    ops += [
        ("manipulate", workloads.manipulation_id(m),
         ["manipulate", paths[workloads.search_key(m[0])], "--output", "json",
          "--coalition", str(m[3]), "--budget", str(m[4])])
        for m in manipulations
    ]
    return ops


def audit_argv(workload, path: str) -> list:
    argv = ["audit", path, "--output", "json",
            "--samples", str(workload.audit_samples), "--seed", str(AUDIT_SEED)]
    if workload.audit_properties is not None:
        argv += ["--properties", workload.audit_properties]
    return argv


def run_op(main, argv, tracer=None):
    """One CLI operation: (seconds, exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv) if tracer is None else tracer.call(spans.ROOT, main, argv)
    except (Exception, SystemExit) as exc:
        error = repr(exc)
    seconds = time.perf_counter() - start
    if error is None and err.getvalue():
        error = err.getvalue().strip()
    return seconds, code, out.getvalue(), error


class Run(NamedTuple):
    kind: str
    key: str
    seconds: float
    code: Optional[int]
    stdout: str
    error: Optional[str]


def run_passes(workload, set_up_once, seed: int, seconds: float, tracer=None):
    """Passes until the elapsed time is closest to ``seconds``, at least
    ``MIN_PASSES``.  A timed set-up precedes every ``PASSES_PER_SETUP``-th
    pass, so that the set-up times spread over the run as the operations do.
    With a tracer, every second pass is traced.  Returns a list of (traced, runs, wall seconds)."""
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while True:
        if len(passes) % PASSES_PER_SETUP == 0:
            paths = set_up_once()
        main = sys.modules["leximinflow.cli"].main
        traced = tracer is not None and len(passes) % 2 == 1
        ops = pass_ops(workload, paths, rng)
        pass_start = time.perf_counter()
        runs = []
        with tracer.patched() if traced else contextlib.nullcontext():
            for kind, key, argv in ops:
                if traced:
                    tracer.begin(kind)
                runs.append(Run(kind, key, *run_op(main, argv, tracer if traced else None)))
        passes.append((traced, runs, time.perf_counter() - pass_start))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def check_results(runs, instances: dict, expected: dict) -> list:
    """Failure messages, one per failed operation."""
    oracle = {}
    failures = []
    for kind, key, _, code, stdout, error in runs:
        if error is not None:
            failures.append(f"{kind} {key}: {error}")
            continue
        try:
            if kind == "allocate":
                if key not in oracle:
                    small = len(instances[key].agents) <= checks.ORACLE_MAX_AGENTS
                    oracle[key] = checks.oracle_view(instances[key]) if small else None
                problem = checks.check_allocate(code, stdout, expected["instances"][key], oracle[key])
            elif kind == "audit":
                problem = checks.check_audit(code, stdout, expected["instances"][key])
            else:
                problem = checks.check_manipulate(code, stdout, expected["manipulations"][key])
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is not None:
            failures.append(f"{kind} {key}: {problem}")
    return failures


def end_to_end(workload, runs) -> dict:
    """Metrics from the fastest run of each operation over the passes:
    name -> (value, unit)."""
    op_time: dict = {}
    mechanism_runs: dict = {}
    for run in runs:
        op = (run.kind, run.key)
        op_time[op] = min(op_time.get(op, run.seconds), run.seconds)
        if run.kind == "manipulate" and run.error is None and run.code == 0:
            mechanism_runs[run.key] = json.loads(run.stdout)["runs"]
    tail_p = stats.tail_percentile(len(workload.pool))
    out = {}
    for kind in ("allocate", "audit"):
        kind_times = [t for (k, _), t in op_time.items() if k == kind]
        out[f"{kind}_s_p50"] = (statistics.median(kind_times), "s")
        out[f"{kind}_s_tail"] = (stats.percentile(kind_times, tail_p), "s")
    manipulate = [(key, t) for (k, key), t in op_time.items() if k == "manipulate"]
    out["manipulate_runs_per_s"] = (
        sum(mechanism_runs.get(key, 0) for key, _ in manipulate) / sum(t for _, t in manipulate),
        "1/s",
    )
    out["ops_per_s"] = (len(op_time) / sum(op_time.values()), "1/s")
    return out


def measure(args, workload, expected: dict, root: str):
    """Set up, warm up, run the timed passes and check every output.
    Returns (metrics, runs, failures, labels)."""
    workdir = os.path.join(root, WORKDIR, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []

        def set_up_once():
            seconds, instances, paths = set_up(workload, args.seed, workdir)
            setups.append(seconds)
            return instances, paths

        instances, paths = set_up_once()
        check_fingerprints(workload, expected)
        instance_labels = solve_labels(workload, instances)
        multi_tier_guard(workload, instance_labels)
        main = sys.modules["leximinflow.cli"].main
        warm_up = {}
        for kind, _, argv in pass_ops(workload, paths, random.Random(args.seed)):
            warm_up.setdefault(kind, argv)
        for argv in warm_up.values():
            run_op(main, argv)

        tracer = spans.Tracer() if args.trace else None
        passes = run_passes(
            workload, lambda: set_up_once()[1], args.seed, args.seconds, tracer
        )
        runs = [run for _, pass_runs, _ in passes for run in pass_runs]
        if args.trace:
            traced = [run for t, pass_runs, _ in passes if t for run in pass_runs]
            untraced = [run for t, pass_runs, _ in passes if not t for run in pass_runs]
            metrics = spans.layer_metrics(
                tracer.spans, tracer.counts, sum(t for t, _, _ in passes), tracer.op_kinds
            )
            plain = end_to_end(workload, untraced)
            for name, (value, unit) in end_to_end(workload, traced).items():
                metrics[f"trace.{name}"] = (value, unit)
                metrics[f"trace.overhead.{name}"] = (value - plain[name][0], unit)
        else:
            metrics = end_to_end(workload, runs)
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        failures = check_results(runs, instances, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, WORKDIR))

    labels = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "backend": sys.modules["leximinflow.rational"].Rational.__module__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "passes": len(passes),
        "pass_wall_s": [wall for _, _, wall in passes],
        "setup_s": setups,
        "tail_percentile": stats.tail_percentile(len(workload.pool)),
        "samples": {kind: sum(1 for run in runs if run.kind == kind) for kind in KINDS},
        "instances": instance_labels,
    }
    return metrics, runs, failures, labels


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    root = os.getcwd()
    import_package(root)
    workload = workloads.WORKLOADS[args.workload]
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)[workload.name]
    metrics, runs, failures, labels = measure(args, workload, expected, root)

    for message in failures[:20]:
        print(f"FAILED {message}")
    print(f"failed_frac {len(failures) / len(runs):.6g} ({len(failures)} of {len(runs)})")
    samples = labels["samples"]
    print(f"latencies: per operation the fastest of {labels['passes']} runs;"
          f" _tail is p{labels['tail_percentile']} of {len(workload.pool)} operations"
          f" ({samples['allocate']} allocate, {samples['audit']} audit runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"labels": labels}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
