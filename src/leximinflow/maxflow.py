"""Exact maximum flow and minimum cuts on rational-capacitated networks.

Dinic's algorithm runs on Python ints: ``max_flow`` scales every capacity by
the lcm of their denominators, so the residual graph is integral, and divides
the edge flows and the value back by that scale once at the end.  Scaling by
a positive constant preserves every comparison, so the augmentations are the
ones exact rational arithmetic would make, and flow values, cut capacities,
and the max-flow = min-cut identity can all be asserted with zero tolerance.
The cut this module reads off a maximum flow is the *source-heavy* minimum
cut — the unique minimum cut whose source side contains the source side of
every other minimum cut — which the breakpoint solver needs to pick maximal
tight agent sets.

Vertices are arbitrary hashable ids.  All procedures are deterministic: edge
input order fixes the augmentation order, so identical input yields an
identical flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .core import InternalCheckError
from .rational import Rational, ZERO


@dataclass(frozen=True)
class FlowNetwork:
    """Directed graph with a distinguished source and sink and exact (rational
    or integer) capacities, kept as given."""

    vertices: tuple
    source: object
    sink: object
    edges: tuple[tuple[object, object, Rational], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if self.source not in vertex_set or self.sink not in vertex_set:
            raise ValueError("source and sink must be vertices")
        object.__setattr__(self, "edges", tuple(self.edges))
        for tail, head, cap in self.edges:
            if cap < ZERO:
                raise ValueError(f"negative capacity on edge {tail!r} -> {head!r}: {cap}")
            if tail not in vertex_set or head not in vertex_set:
                raise ValueError(f"edge {tail!r} -> {head!r} references unknown vertex")


@dataclass(frozen=True)
class Flow:
    """Per-edge flow values aligned with ``FlowNetwork.edges``, plus the total value."""

    edge_flows: tuple[Rational, ...]
    value: Rational


@dataclass(frozen=True)
class CutResult:
    """A source/sink cut: the vertex set containing the source, and its capacity."""

    source_side: frozenset
    capacity: Rational


class _Residual:
    """Arc-pair residual graph on integer capacities: arc 2i is edge i
    forward, arc 2i+1 its reverse.  Capacities are the network's times
    ``scale``, the lcm of their denominators."""

    def __init__(self, network: FlowNetwork):
        index = {v: i for i, v in enumerate(network.vertices)}
        n = len(network.vertices)
        # int(): a gmpy2 denominator is an mpz.
        self.scale = math.lcm(*(int(c.denominator) for _, _, c in network.edges))
        self.head: list[int] = []
        self.residual: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for tail, head, cap in network.edges:
            t, h = index[tail], index[head]
            self.adj[t].append(len(self.head))
            self.head.append(h)
            self.residual.append(int(cap.numerator) * (self.scale // int(cap.denominator)))
            self.adj[h].append(len(self.head))
            self.head.append(t)
            self.residual.append(0)
        self.source = index[network.source]
        self.sink = index[network.sink]
        self.n = n

    def levels_from_source(self) -> list[int]:
        head, residual, adj = self.head, self.residual, self.adj
        level = [-1] * self.n
        level[self.source] = 0
        queue = deque([self.source])
        while queue:
            v = queue.popleft()
            for arc in adj[v]:
                h = head[arc]
                if level[h] < 0 and residual[arc] > 0:
                    level[h] = level[v] + 1
                    queue.append(h)
        return level

    def blocking_flow(self, level: list[int]) -> int:
        """Push a blocking flow along level-increasing paths; returns total pushed."""
        head, residual, adj = self.head, self.residual, self.adj
        source, sink = self.source, self.sink
        pushed_total = 0
        pointer = [0] * self.n
        path: list[int] = []
        v = source
        while True:
            if v == sink:
                bottleneck = min(residual[arc] for arc in path)
                for arc in path:
                    residual[arc] -= bottleneck
                    residual[arc ^ 1] += bottleneck
                pushed_total += bottleneck
                for i, arc in enumerate(path):
                    if residual[arc] == 0:
                        del path[i:]
                        break
                v = source if not path else head[path[-1]]
                continue
            advanced = False
            arcs = adj[v]
            while pointer[v] < len(arcs):
                arc = arcs[pointer[v]]
                h = head[arc]
                if residual[arc] > 0 and level[h] == level[v] + 1:
                    path.append(arc)
                    v = h
                    advanced = True
                    break
                pointer[v] += 1
            if advanced:
                continue
            if v == source:
                return pushed_total
            level[v] = -1
            arc = path.pop()
            v = head[arc ^ 1]
            pointer[v] += 1


def max_flow(network: FlowNetwork) -> Flow:
    """Compute a maximum flow (Dinic's algorithm on the integer-scaled network)."""
    residual = _Residual(network)
    value = 0
    while True:
        level = residual.levels_from_source()
        if level[residual.sink] < 0:
            break
        value += residual.blocking_flow(level)
    # The residual of reverse arc 2i+1 is exactly the scaled flow on edge i.
    scale = residual.scale
    return Flow(
        edge_flows=tuple(Rational(f, scale) for f in residual.residual[1::2]),
        value=Rational(value, scale),
    )


def _cut_capacity(network: FlowNetwork, source_side: frozenset) -> Rational:
    capacity = ZERO
    for tail, head, cap in network.edges:
        if tail in source_side and head not in source_side:
            capacity += cap
    return capacity


def _check_minimum(network: FlowNetwork, flow: Flow, cut: CutResult) -> CutResult:
    if cut.capacity != flow.value:
        raise InternalCheckError(
            f"flow is not maximum: cut capacity {cut.capacity} != flow value {flow.value}"
        )
    return cut


def source_heavy_min_cut(network: FlowNetwork, flow: Flow) -> CutResult:
    """The unique minimum cut whose source side contains every minimum cut's
    source side: the complement of the vertices that can still reach the sink
    in the residual graph."""
    # Residual arcs grouped by head: an edge below capacity gives tail -> head,
    # an edge carrying flow gives head -> tail.
    tails: dict = {}
    for (tail, head, cap), f in zip(network.edges, flow.edge_flows):
        if f < cap:
            tails.setdefault(head, []).append(tail)
        if f > ZERO:
            tails.setdefault(tail, []).append(head)
    # Walk residual arcs backwards from the sink.
    reaches_sink = {network.sink}
    stack = [network.sink]
    while stack:
        for u in tails.get(stack.pop(), ()):
            if u not in reaches_sink:
                reaches_sink.add(u)
                stack.append(u)
    if network.source in reaches_sink:
        raise InternalCheckError("flow is not maximum: sink reachable in residual graph")
    source_side = frozenset(v for v in network.vertices if v not in reaches_sink)
    return _check_minimum(network, flow, CutResult(source_side, _cut_capacity(network, source_side)))
