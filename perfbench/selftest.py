"""Self-test of the benchmark's own arithmetic.

    python3 perfbench/selftest.py

Covers the self-time subtraction on nested synthetic spans, the tail
percentile rule and its sample count, the fastest-run-per-operation
latencies, and that the metric names the benchmark prints are exactly those
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import statistics
import unittest
from collections import Counter

import spans
import stats
import workloads
from run import Run, end_to_end
from spans import Span

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def span(name, start, end, parent=-1):
    return Span(name, float(start), float(end), parent, 0)


class SpanArithmetic(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(spans.union_length([]), 0.0)
        self.assertEqual(spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]), 4.0)

    def test_self_time_subtracts_children_only(self):
        tree = [
            span("cli.main", 0, 10),
            span("leximin.breakpoints", 1, 4, parent=0),
            span("maxflow.max_flow", 2, 3, parent=1),
            span("properties.envy_report", 5, 9, parent=0),
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 2.0, 1.0, 4.0])

    def test_self_time_counts_overlapping_children_once(self):
        tree = [span("a.x", 0, 10), span("b.y", 1, 4, 0), span("b.z", 3, 6, 0), span("b.w", 9, 12, 0)]
        # Children cover [1, 6] and [9, 10] of the parent: 6 of its 10.
        self.assertEqual(spans.self_times(tree)[0], 4.0)

    def test_layer_metrics_busy_and_self(self):
        tree = [
            span("cli.main", 0, 10),
            span("leximin.lexicographic_allocation", 1, 9, 0),
            span("leximin.breakpoints", 1, 6, 1),
            span("leximin.min_ratio", 2, 5, 2),
            span("maxflow.max_flow", 3, 4, 3),
            span("maxflow.max_flow", 7, 8, 1),
        ]
        m = spans.layer_metrics(tree, Counter(), 1, ["allocate"])
        self.assertEqual(m["cli.self_s"][0], 2.0)
        self.assertEqual(m["leximin.calls"][0], 1)
        self.assertEqual(m["leximin.busy_s"][0], 8.0)
        self.assertEqual(m["leximin.self_s"][0], 6.0)
        self.assertEqual(m["leximin.breakpoints.self_s"][0], 2.0)
        self.assertEqual(m["maxflow.busy_s"][0], 2.0)
        self.assertEqual(m["leximin.final_flow.calls"][0], 1)
        self.assertEqual(m["leximin.final_flow.busy_s"][0], 1.0)
        self.assertEqual(m["leximin.tiers"][0], 1.0)
        self.assertEqual(m["leximin.allocate_solve_frac"][0], 0.8)
        halved = spans.layer_metrics(tree, Counter(), 2, ["allocate"])
        self.assertEqual(halved["leximin.busy_s"][0], 4.0)


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n, p in ((20, 50), (40, 75), (100, 90), (200, 95), (1000, 99)):
            self.assertEqual(stats.tail_percentile(n), p)
            values = list(range(1, n + 1))
            beyond = sum(1 for v in values if v > stats.percentile(values, p))
            self.assertGreaterEqual(beyond, 10)
            if p < 99:
                nxt = stats.percentile(values, p + 1)
                self.assertLess(sum(1 for v in values if v > nxt), 10)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(19)

    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertEqual(stats.percentile(values, 1), 1.0)


class EndToEnd(unittest.TestCase):
    def test_fastest_run_per_operation(self):
        workload = workloads.WORKLOADS["tiers"]
        runs = []
        for i, (key, *_) in enumerate(workload.pool):
            # Three passes; the second is the fastest for every operation.
            for scale in (3, 1, 2):
                runs.append(Run("allocate", key, scale * (i + 1), 0, "", None))
                runs.append(Run("audit", key, scale * 2 * (i + 1), 0, "", None))
        m = workload.manipulations
        for seconds in (4.0, 2.0):
            for manipulation in m:
                runs.append(Run("manipulate", workloads.manipulation_id(manipulation), seconds, 0,
                                '{"runs": 10}', None))
        out = end_to_end(workload, runs)
        n = len(workload.pool)
        fastest = list(range(1, n + 1))
        self.assertEqual(out["allocate_s_p50"][0], statistics.median(fastest))
        self.assertEqual(out["allocate_s_tail"][0], stats.percentile(fastest, stats.tail_percentile(n)))
        self.assertEqual(out["audit_s_p50"][0], 2 * statistics.median(fastest))
        self.assertEqual(out["manipulate_runs_per_s"][0], 5.0)
        total = sum(fastest) * 3 + 2.0 * len(m)
        self.assertEqual(out["ops_per_s"][0], (2 * n + len(m)) / total)


class DeclaredMetrics(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK, encoding="utf-8") as handle:
            self.bench = json.load(handle)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(workloads.WORKLOADS))

    def _results(self, workload):
        results = [Run(k, key, 0.5, 0, "", None) for k in ("allocate", "audit") for key, *_ in workload.pool]
        for m in workload.manipulations:
            results.append(Run("manipulate", workloads.manipulation_id(m), 0.5, 0, '{"runs": 3}', None))
        return results

    def test_end_to_end_names(self):
        workload = workloads.WORKLOADS["tiers"]
        printed = set(end_to_end(workload, self._results(workload))) | {"setup_s", "peak_rss_mb"}
        self.assertEqual(printed, {m["name"] for m in self.bench["end_to_end"]})

    def test_per_layer_names(self):
        workload = workloads.WORKLOADS["tiers"]
        printed = set(spans.layer_metrics([span("cli.main", 0, 1)], Counter(), 1, ["allocate"]))
        printed |= {f"trace.{n}" for n in end_to_end(workload, self._results(workload))}
        printed |= {f"trace.overhead.{n}" for n in end_to_end(workload, self._results(workload))}
        self.assertEqual(printed, {m["name"] for m in self.bench["per_layer"]})


if __name__ == "__main__":
    unittest.main()
