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
tight agent sets.  It is read off the integer residual graph that the flow
keeps, so the cut costs one walk from the sink and one integer sum.

Vertices are arbitrary hashable ids; the solver's networks use the vertex
indices 0..n-1, which the residual graph uses internally anyway.  All
procedures are deterministic: edge input order fixes the augmentation order,
so identical input yields an identical flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .core import InternalCheckError
from .rational import Rational


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
        # Edges are checked where max_flow scales them, one comparison each.
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True)
class Flow:
    """Per-edge flow values aligned with ``FlowNetwork.edges``, plus the total
    value and the integer residual graph they were read from."""

    edge_flows: tuple[Rational, ...]
    value: Rational
    residual: _Residual = field(compare=False, repr=False)


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
        self.scale = scale = math.lcm(*(int(c.denominator) for _, _, c in network.edges))
        self.head: list[int] = []
        self.residual: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for tail, head, cap in network.edges:
            scaled = int(cap.numerator) * (scale // int(cap.denominator))
            if scaled < 0:
                raise ValueError(f"negative capacity on edge {tail!r} -> {head!r}: {cap}")
            try:
                t, h = index[tail], index[head]
            except KeyError:
                raise ValueError(f"edge {tail!r} -> {head!r} references unknown vertex") from None
            self.adj[t].append(len(self.head))
            self.head.append(h)
            self.residual.append(scaled)
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
        residual=residual,
    )


def source_heavy_min_cut(network: FlowNetwork, flow: Flow) -> CutResult:
    """The unique minimum cut whose source side contains every minimum cut's
    source side: the complement of the vertices that can still reach the sink
    in the flow's residual graph.

    Self-checks (fatal on failure): the source cannot reach the sink, and the
    cut capacity equals the flow value."""
    graph = flow.residual
    head, residual, adj = graph.head, graph.residual, graph.adj
    # Walk residual arcs backwards from the sink: arc leaves v, and its
    # reverse arc ^ 1 runs from head[arc] into v.
    reaches_sink = [False] * graph.n
    reaches_sink[graph.sink] = True
    stack = [graph.sink]
    while stack:
        for arc in adj[stack.pop()]:
            u = head[arc]
            if residual[arc ^ 1] > 0 and not reaches_sink[u]:
                reaches_sink[u] = True
                stack.append(u)
    if reaches_sink[graph.source]:
        raise InternalCheckError("flow is not maximum: sink reachable in residual graph")
    # Arc 2i runs tail -> head of edge i; its two residuals sum to the
    # edge's scaled capacity.
    scaled = 0
    for arc in range(0, len(head), 2):
        if reaches_sink[head[arc]] and not reaches_sink[head[arc + 1]]:
            scaled += residual[arc] + residual[arc + 1]
    capacity = Rational(scaled, graph.scale)
    if capacity != flow.value:
        raise InternalCheckError(
            f"flow is not maximum: cut capacity {capacity} != flow value {flow.value}"
        )
    source_side = frozenset(v for v, r in zip(network.vertices, reaches_sink) if not r)
    return CutResult(source_side, capacity)
