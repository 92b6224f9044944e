"""Span tracing from outside the package, and the per-layer metrics.

Tracing replaces the module attributes that callers actually look up (for
example ``leximinflow.leximin.max_flow``, which ``min_ratio`` calls) with
timing wrappers for the length of a ``with tracer.patched():`` block.  Each
call records a span (name, start, end, parent, operation id) in memory; the
metrics are computed from the spans when the run ends.

A span's self time is its duration minus the part of it that its child spans
cover.  A layer's busy time is the length of the union of its spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

# (module whose attribute is replaced, attribute, span name).  A span name is
# "<layer>.<function>", where the layer is the package module that defines it.
PATCHES = (
    ("leximinflow.cli", "lexicographic_allocation", "leximin.lexicographic_allocation"),
    ("leximinflow.harness", "lexicographic_allocation", "leximin.lexicographic_allocation"),
    ("leximinflow.leximin", "breakpoints", "leximin.breakpoints"),
    ("leximinflow.leximin", "min_ratio", "leximin.min_ratio"),
    ("leximinflow.leximin", "tier_capacity", "leximin.tier_capacity"),
    ("leximinflow.leximin", "_view_network", "leximin.network_build"),
    ("leximinflow.leximin", "build_network", "leximin.network_build"),
    ("leximinflow.cli", "structure_check", "leximin.structure_check"),
    ("leximinflow.harness", "structure_check", "leximin.structure_check"),
    ("leximinflow.leximin", "max_flow", "maxflow.max_flow"),
    ("leximinflow.leximin", "source_heavy_min_cut", "maxflow.source_heavy_min_cut"),
    ("leximinflow.cli", "envy_report", "properties.envy_report"),
    ("leximinflow.cli", "si_ratio", "properties.si_ratio"),
    ("leximinflow.cli", "is_nw", "properties.is_nw"),
    ("leximinflow.cli", "is_frugal", "properties.is_frugal"),
    ("leximinflow.cli", "lorenz_dominates", "properties.lorenz"),
    ("leximinflow.cli", "leximin_cmp", "properties.lorenz"),
    ("leximinflow.cli", "validate_instance", "core.validate_instance"),
    ("leximinflow.leximin", "validate_instance", "core.validate_instance"),
    ("leximinflow.cli", "utility_vector", "core.utility_vector"),
    ("leximinflow.fileio", "parse_instance", "fileio.parse_instance"),
    ("leximinflow.cli", "search_manipulation", "harness.search_manipulation"),
    ("leximinflow.cli", "check_substructure", "harness.check_substructure"),
    ("leximinflow.harness", "oracle_breakpoints", "oracle.oracle_breakpoints"),
    ("leximinflow.cli", "random_frugal_allocation", "oracle.random_frugal_allocation"),
)

ROOT = "cli.main"
LAYERS = ("cli", "fileio", "core", "leximin", "maxflow", "properties", "harness", "oracle")
# Layers and functions with traced children, whose self time differs from busy.
PARENT_LAYERS = ("cli", "leximin", "harness")
PARENTS = (
    "leximin.lexicographic_allocation",
    "leximin.breakpoints",
    "leximin.min_ratio",
    "harness.search_manipulation",
    "harness.check_substructure",
)
FUNCTIONS = tuple(dict.fromkeys(name for _, _, name in PATCHES))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = [
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids
            if k.end > span.start and k.start < span.end
        ]
        out.append(span.end - span.start - union_length(covered))
    return out


class Tracer:
    """Collects spans and the counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.op_kinds: list[str] = []  # CLI subcommand of each operation id
        self.op = -1

    def begin(self, kind: str) -> None:
        """Start a new operation: later spans carry its id."""
        self.op_kinds.append(kind)
        self.op = len(self.op_kinds) - 1

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        # Placeholder until the call returns, so that children can read
        # their parent's name.
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._open.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)
        self._count(name, index, args, result)
        return result

    def _count(self, name: str, index: int, args, result) -> None:
        if name == "maxflow.max_flow":
            self.counts["maxflow.edges"] += len(args[0].edges)
            parent = self.spans[index].parent
            if parent >= 0 and self.spans[parent].name == "leximin.min_ratio":
                self.counts["maxflow.tier_solves"] += 1
        elif name == "fileio.parse_instance":
            self.counts["fileio.bytes"] += len(args[0].encode("utf-8"))
        elif name == "harness.search_manipulation":
            self.counts["harness.runs"] += result.runs
            self.counts["harness.space"] += result.space
        elif name == "leximin.structure_check" and self._inside(index, "harness.search_manipulation"):
            self.counts["harness.candidates"] += 1

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, counts, passes: int, op_kinds) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass: name -> (value, unit).
    ``op_kinds[span.op]`` is the subcommand a span ran under."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def busy(indices) -> float:
        return union_length((spans[i].start, spans[i].end) for i in indices) / passes

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        indices = [i for i, s in enumerate(spans) if layer_of(s.name) == layer]
        entries = [
            i for i in indices
            if spans[i].parent < 0 or layer_of(spans[spans[i].parent].name) != layer
        ]
        out[f"{layer}.calls"] = (len(entries) / passes, "count")
        out[f"{layer}.busy_s"] = (busy(indices), "s")
        if layer in PARENT_LAYERS:
            out[f"{layer}.self_s"] = (sum(selfs[i] for i in indices) / passes, "s")
    for name in FUNCTIONS:
        indices = by_name.get(name, [])
        out[f"{name}.calls"] = (len(indices) / passes, "count")
        out[f"{name}.busy_s"] = (busy(indices), "s")
        if name in PARENTS:
            out[f"{name}.self_s"] = (sum(selfs[i] for i in indices) / passes, "s")

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    flows = by_name.get("maxflow.max_flow", [])
    final = [
        i for i in flows
        if spans[i].parent >= 0
        and spans[spans[i].parent].name == "leximin.lexicographic_allocation"
    ]
    tiers = len(by_name.get("leximin.min_ratio", []))

    def in_allocate(name) -> int:
        return sum(1 for i in by_name.get(name, []) if op_kinds[spans[i].op] == "allocate")

    def in_allocate_busy(name) -> float:
        return busy(i for i in by_name.get(name, []) if op_kinds[spans[i].op] == "allocate")

    runs = counts["harness.runs"]
    # Share of the allocate operations' time spent in the solve (leximin and
    # the max flows it runs).
    out["leximin.allocate_solve_frac"] = (
        ratio(in_allocate_busy("leximin.lexicographic_allocation"), in_allocate_busy(ROOT)), "frac"
    )
    out["leximin.final_flow.calls"] = (len(final) / passes, "count")
    out["leximin.final_flow.busy_s"] = (busy(final), "s")
    # Tiers per instance: min_ratio runs once per tier of an allocate solve.
    out["leximin.tiers"] = (
        ratio(in_allocate("leximin.min_ratio"), in_allocate("leximin.breakpoints")), "count"
    )
    out["maxflow.edges_per_solve"] = (ratio(counts["maxflow.edges"], len(flows)), "count")
    out["maxflow.solves_per_tier"] = (ratio(counts["maxflow.tier_solves"], tiers), "count")
    out["fileio.bytes_parsed"] = (counts["fileio.bytes"] / passes, "B")
    out["harness.mechanism_runs"] = (runs / passes, "count")
    out["harness.candidate_frac"] = (ratio(counts["harness.candidates"], runs), "frac")
    out["harness.coverage_frac"] = (ratio(runs, counts["harness.space"]), "frac")
    return out
