"""The benchmark runs cleanly on every workload and its outputs still match.

One zero-second run per workload makes the minimum number of passes and
checks every output against ``perfbench/expected.json`` (and the oracle, for
oracle-sized instances), so output drift fails here before a timed run.  One
traced run on ``small`` drives the span patching and the per-layer metrics
end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_benchmark(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0
    return last


@pytest.mark.parametrize("workload", ["tiers", "dense", "small"])
def test_benchmark_run_is_correct(workload):
    run_benchmark(workload, 0)


def test_traced_benchmark_run_is_correct():
    metrics = run_benchmark("small", 1)["metrics"]
    assert metrics["harness.mechanism_runs"]["value"] > 0
    assert metrics["harness.search_manipulation.calls"]["value"] > 0
    assert metrics["maxflow.max_flow.calls"]["value"] > 0
