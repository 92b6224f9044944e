"""Exact maximum flow and minimum cuts on rational-capacitated networks.

A network's vertices are the indices 0..n-1, with source 0 and sink n-1.
Dinic's algorithm runs on Python ints: ``max_flow`` scales every capacity by
the lcm of their denominators, so the residual graph is integral, and the
``Flow`` it returns is that residual graph.  ``max_flow`` divides only the
value back by the scale; ``Flow.edge_flows`` divides the edge flows back
when it is called.  Scaling by a positive constant preserves
every comparison, so the augmentations are the ones exact rational
arithmetic would make, and flow values, cut capacities, and the max-flow =
min-cut identity can all be asserted with zero tolerance.
The cut this module reads off a maximum flow is the *source-heavy* minimum
cut — the unique minimum cut whose source side contains the source side of
every other minimum cut — which the breakpoint solver needs to pick maximal
tight agent sets.  It is read off the flow's integer residual graph, so the
cut costs one walk from the sink and one integer sum.

All procedures are deterministic: edge input order fixes the augmentation
order, so identical input yields an identical flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .core import InternalCheckError
from .rational import Rational, ZERO


@dataclass(frozen=True)
class FlowNetwork:
    """Directed graph on the vertices 0..n-1, with source 0, sink n-1 and
    exact (rational or integer) capacities, kept as given."""

    n: int
    edges: tuple[tuple[int, int, Rational], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"a flow network needs at least 2 vertices, got {self.n}")
        # Edges are checked where max_flow scales them, one comparison each.
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True)
class CutResult:
    """A source/sink cut: the vertex set containing the source, and its capacity."""

    source_side: frozenset
    capacity: Rational


class Flow:
    """A flow as the arc-pair residual graph Dinic ran on: arc 2i is edge i
    forward, arc 2i+1 its reverse.  Capacities are the network's times
    ``scale``, the lcm of their denominators, so the residual of arc 2i+1 is
    edge i's scaled flow.  ``value`` is the unscaled flow value, set by
    ``max_flow``; a fresh ``Flow(network)`` is the zero flow."""

    def __init__(self, network: FlowNetwork):
        n = network.n
        # int(): a gmpy2 denominator is an mpz.
        self.scale = scale = math.lcm(*(int(c.denominator) for _, _, c in network.edges))
        self.head: list[int] = []
        self.residual: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for t, h, cap in network.edges:
            scaled = int(cap.numerator) * (scale // int(cap.denominator))
            if scaled < 0:
                raise ValueError(f"negative capacity on edge {t!r} -> {h!r}: {cap}")
            # Explicit: the lists below would read a negative index from
            # their end, so -1 would silently be the sink.
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError(f"edge {t!r} -> {h!r} leaves the vertices 0..{n - 1}")
            self.adj[t].append(len(self.head))
            self.head.append(h)
            self.residual.append(scaled)
            self.adj[h].append(len(self.head))
            self.head.append(t)
            self.residual.append(0)
        self.n = n
        self.value: Rational = ZERO

    def edge_flows(self) -> tuple[Rational, ...]:
        """Per-edge flow values aligned with ``FlowNetwork.edges``."""
        scale = self.scale
        return tuple(Rational(f, scale) for f in self.residual[1::2])

    def levels_from_source(self) -> list[int]:
        head, residual, adj = self.head, self.residual, self.adj
        level = [-1] * self.n
        level[0] = 0
        queue = deque([0])
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
        source, sink = 0, self.n - 1
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
    flow = Flow(network)
    sink = network.n - 1
    value = 0
    while True:
        level = flow.levels_from_source()
        if level[sink] < 0:
            break
        value += flow.blocking_flow(level)
    flow.value = Rational(value, flow.scale)
    return flow


def source_heavy_min_cut(network: FlowNetwork, flow: Flow) -> CutResult:
    """The unique minimum cut whose source side contains every minimum cut's
    source side: the complement of the vertices that can still reach the sink
    in the flow's residual graph.

    Self-checks (fatal on failure): the source cannot reach the sink, and the
    cut capacity equals the flow value."""
    head, residual, adj = flow.head, flow.residual, flow.adj
    sink = network.n - 1
    # Walk residual arcs backwards from the sink: arc leaves v, and its
    # reverse arc ^ 1 runs from head[arc] into v.
    reaches_sink = [False] * network.n
    reaches_sink[sink] = True
    stack = [sink]
    while stack:
        for arc in adj[stack.pop()]:
            u = head[arc]
            if residual[arc ^ 1] > 0 and not reaches_sink[u]:
                reaches_sink[u] = True
                stack.append(u)
    if reaches_sink[0]:
        raise InternalCheckError("flow is not maximum: sink reachable in residual graph")
    # Arc 2i runs tail -> head of edge i; its two residuals sum to the
    # edge's scaled capacity.
    scaled = 0
    for arc in range(0, len(head), 2):
        if reaches_sink[head[arc]] and not reaches_sink[head[arc + 1]]:
            scaled += residual[arc] + residual[arc + 1]
    capacity = Rational(scaled, flow.scale)
    if capacity != flow.value:
        raise InternalCheckError(
            f"flow is not maximum: cut capacity {capacity} != flow value {flow.value}"
        )
    source_side = frozenset(v for v, r in enumerate(reaches_sink) if not r)
    return CutResult(source_side, capacity)
