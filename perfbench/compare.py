"""Compare saved benchmark runs of two commits.

    python3 perfbench/compare.py base/*.out -- change/*.out

Each file holds the standard output of ``run.py`` runs: one run, or several
from ``--workload all``.  Every labels line and the result line after it form
one run.  For every workload and metric it prints both sides' median and
quartiles and the change's median over the base's.  It refuses runs whose
labels name different rational backends, since ``gmpy2.mpq`` and
``fractions.Fraction`` runs are not comparable, and runs whose result is not
``correct``, since their outputs were wrong.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> list:
    """(labels, result) of every run in a saved output file."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    runs = []
    for i, line in enumerate(lines[:-1]):
        if line.startswith('{"labels": '):
            runs.append((json.loads(line)["labels"], json.loads(lines[i + 1])))
    if not runs:
        raise SystemExit(f"{path}: no benchmark run found")
    return runs


def summary(values) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = [
        [run for p in argv[:split] for run in load(p)],
        [run for p in argv[split + 1:] for run in load(p)],
    ]
    if not all(sides):
        print("each side needs at least one run", file=sys.stderr)
        return 2
    backends = {labels["backend"] for side in sides for labels, _ in side}
    if len(backends) > 1:
        print(f"refusing to compare runs on different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    wrong = [
        f"{labels['workload']} seed {labels['seed']}"
        for side in sides for labels, result in side if not result["correct"]
    ]
    if wrong:
        print(f"refusing to compare runs with failed operations: {', '.join(wrong)}", file=sys.stderr)
        return 2
    values: dict = {}
    for i, side in enumerate(sides):
        for labels, result in side:
            for name, metric in result["metrics"].items():
                key = (labels["workload"], name, metric["unit"])
                values.setdefault(key, ([], []))[i].append(metric["value"])
    print("workload metric unit: base median [q1, q3] | change median [q1, q3] | change/base")
    for (workload, name, unit), (base, change) in sorted(values.items()):
        if base and change:
            ratio = statistics.median(change) / statistics.median(base) if statistics.median(base) else float("nan")
            print(f"{workload} {name} {unit}: {summary(base)} | {summary(change)} | {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
