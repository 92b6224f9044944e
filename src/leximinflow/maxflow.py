"""Exact maximum flow and minimum cuts on rational-capacitated networks.

Dinic's algorithm over exact rational capacities: with rational data every
augmentation is exact and termination is guaranteed, so flow values, cut
capacities, and the max-flow = min-cut identity can all be asserted with zero
tolerance.  The cut this module reads off a maximum flow is the *source-heavy*
minimum cut — the unique minimum cut whose source side contains the source
side of every other minimum cut — which the breakpoint solver needs to pick
maximal tight agent sets.

Vertices are arbitrary hashable ids.  All procedures are deterministic: edge
input order fixes the augmentation order, so identical input yields an
identical flow.
"""

from __future__ import annotations

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
    """Arc-pair residual graph: arc 2i is edge i forward, arc 2i+1 its reverse."""

    def __init__(self, network: FlowNetwork):
        index = {v: i for i, v in enumerate(network.vertices)}
        n = len(network.vertices)
        self.head: list[int] = []
        self.residual: list[Rational] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for tail, head, cap in network.edges:
            t, h = index[tail], index[head]
            self.adj[t].append(len(self.head))
            self.head.append(h)
            self.residual.append(cap)
            self.adj[h].append(len(self.head))
            self.head.append(t)
            self.residual.append(ZERO)
        self.source = index[network.source]
        self.sink = index[network.sink]
        self.n = n

    def tail(self, arc: int) -> int:
        return self.head[arc ^ 1]

    def levels_from_source(self) -> list[int]:
        level = [-1] * self.n
        level[self.source] = 0
        queue = deque([self.source])
        while queue:
            v = queue.popleft()
            for arc in self.adj[v]:
                h = self.head[arc]
                if level[h] < 0 and self.residual[arc] > ZERO:
                    level[h] = level[v] + 1
                    queue.append(h)
        return level

    def blocking_flow(self, level: list[int]) -> Rational:
        """Push a blocking flow along level-increasing paths; returns total pushed."""
        pushed_total = ZERO
        pointer = [0] * self.n
        path: list[int] = []
        v = self.source
        while True:
            if v == self.sink:
                bottleneck = min(self.residual[arc] for arc in path)
                for arc in path:
                    self.residual[arc] -= bottleneck
                    self.residual[arc ^ 1] += bottleneck
                pushed_total += bottleneck
                for i, arc in enumerate(path):
                    if self.residual[arc] == ZERO:
                        del path[i:]
                        break
                v = self.source if not path else self.head[path[-1]]
                continue
            advanced = False
            while pointer[v] < len(self.adj[v]):
                arc = self.adj[v][pointer[v]]
                h = self.head[arc]
                if self.residual[arc] > ZERO and level[h] == level[v] + 1:
                    path.append(arc)
                    v = h
                    advanced = True
                    break
                pointer[v] += 1
            if advanced:
                continue
            if v == self.source:
                return pushed_total
            level[v] = -1
            arc = path.pop()
            v = self.tail(arc)
            pointer[v] += 1


def max_flow(network: FlowNetwork) -> Flow:
    """Compute a maximum flow (Dinic's algorithm, exact arithmetic)."""
    residual = _Residual(network)
    value = ZERO
    while True:
        level = residual.levels_from_source()
        if level[residual.sink] < 0:
            break
        value += residual.blocking_flow(level)
    # The residual of reverse arc 2i+1 is exactly the flow on edge i.
    return Flow(edge_flows=tuple(residual.residual[1::2]), value=value)


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
