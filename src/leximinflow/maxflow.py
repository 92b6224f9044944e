"""Exact maximum flow and minimum cuts on bipartite integral networks.

A network has the one shape the solver builds: source 0, the p agents
1..p, the q objects p+1..p+q and sink p+q+1.  Its edges are the p source
edges, one demand edge per demand entry from its agent to its object, in
the entries' order, and one sink edge per object.  ``FlowNetwork`` fills
the arc arrays straight from those three mappings, with the demand and sink
capacities times one multiplier, so a caller scales a network without
copying its dicts.

Every capacity must be a Python int, even an integral rational is refused:
callers scale their networks, so Dinic's algorithm runs on Python ints and
the ``Flow`` it returns is that residual graph.  Flow values, edge flows
and cut capacities are ints, so the max-flow = min-cut identity is asserted
exactly.  Dinic's first phase needs no BFS: on a fresh network every agent
with a positive source edge is at level 1, every object it demands at
level 2 and the sink at level 3, so the first blocking flow is one sweep
over the source edges in order, each agent's demand edges in order, and
each demanded object's sink edge.  That sweep makes exactly the
augmentations of the level-graph walk, and the later phases run the
generic BFS and walk.

The cut this module reads off a maximum flow is the *source-heavy* minimum
cut — the unique minimum cut whose source side contains the source side of
every other minimum cut — which the breakpoint solver needs to pick maximal
tight agent sets.  It is read off the flow's residual graph, so the cut
costs one walk from the sink and one integer sum.

All procedures are deterministic: edge order fixes the augmentation order,
so identical input yields an identical flow.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from .core import InternalCheckError


class FlowNetwork:
    """The bipartite network of ``source_caps`` (agent -> source capacity),
    ``demand`` ((agent, object) -> capacity) and ``sink_caps`` (object ->
    sink capacity), with every demand and sink capacity times ``scale``.

    The agents are ``source_caps``' keys and the objects ``sink_caps``',
    each in order.  Edge i is arc 2i forward and arc 2i+1 its reverse:
    ``head`` holds each arc's head, ``capacity`` each arc's capacity (0 on
    a reverse arc) and ``adj[v]`` the arcs leaving v in edge order.
    Capacities are kept as given and checked where ``Flow`` reads them.
    """

    __slots__ = ("n", "p", "m", "head", "capacity", "adj")

    def __init__(
        self, source_caps: Mapping, demand: Mapping, sink_caps: Mapping, scale: int = 1
    ):
        p, m, q = len(source_caps), len(demand), len(sink_caps)
        sink = p + q + 1
        agent_id = dict(zip(source_caps, range(1, p + 1)))
        object_id = dict(zip(sink_caps, range(p + 1, sink)))
        first_sink_arc = 2 * (p + m)
        arcs = first_sink_arc + 2 * q
        head = [0] * arcs
        capacity = [0] * arcs
        head[0:2 * p:2] = range(1, p + 1)
        capacity[0:2 * p:2] = source_caps.values()
        # The source's arcs, then each agent's reverse source arc; the
        # demand and sink arcs follow in edge order.
        adj = [list(range(0, 2 * p, 2))]
        adj += [[arc] for arc in range(1, 2 * p, 2)]
        adj += [[] for _ in range(q)]
        arc = 2 * p
        try:
            for (a, b), d in demand.items():
                i = agent_id[a]
                j = object_id[b]
                head[arc] = j
                head[arc + 1] = i
                capacity[arc] = d * scale
                adj[i].append(arc)
                adj[j].append(arc + 1)
                arc += 2
        except KeyError:
            raise ValueError(
                f"demand edge {a!r} -> {b!r} leaves the network's agents and objects"
            ) from None
        head[first_sink_arc::2] = [sink] * q
        head[first_sink_arc + 1::2] = range(p + 1, sink)
        capacity[first_sink_arc::2] = [c * scale for c in sink_caps.values()]
        for j in range(p + 1, sink):
            adj[j].append(arc)
            arc += 2
        adj.append(list(range(first_sink_arc + 1, arcs, 2)))
        self.n = sink + 1
        self.p = p
        self.m = m
        self.head = head
        self.capacity = capacity
        self.adj = adj

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(tail, head, capacity) per edge, in edge order."""
        head = self.head
        return tuple(zip(head[1::2], head[0::2], self.capacity[0::2]))


class Flow:
    """A flow as the arc-pair residual graph Dinic ran on: arc 2i is edge i
    forward, arc 2i+1 its reverse, so the residual of arc 2i+1 is edge i's
    flow.  ``value`` is the int flow value, set by ``max_flow``; a fresh
    ``Flow(network)`` is the zero flow.  It shares the network's ``head``
    and ``adj``, and owns its ``residual``."""

    def __init__(self, network: FlowNetwork):
        residual = network.capacity.copy()
        # An int sum means that every capacity is an int: adding a Fraction,
        # an mpq or a float to an int gives that type.
        if type(sum(residual)) is not int:
            arc = next(arc for arc, cap in enumerate(residual) if type(cap) is not int)
            raise ValueError(
                f"non-integral capacity on edge {_endpoints(network, arc)}: {residual[arc]}"
                f" is a {type(residual[arc]).__name__}, not an int"
            )
        if residual and min(residual) < 0:
            arc = next(arc for arc, cap in enumerate(residual) if cap < 0)
            raise ValueError(
                f"negative capacity on edge {_endpoints(network, arc)}: {residual[arc]}"
            )
        self.head = network.head
        self.adj = network.adj
        self.residual = residual
        self.n = network.n
        self.value = 0

    def edge_flows(self) -> tuple[int, ...]:
        """Per-edge flow values aligned with ``FlowNetwork.edges``."""
        return tuple(self.residual[1::2])

    def first_phase(self, p: int, m: int) -> int:
        """Dinic's first blocking flow on the fresh bipartite network of p
        agents and m demand edges, as one sweep; returns the total pushed.

        Each agent in order pushes along its demand edges in order, each
        time as much as its source edge, the demand edge and the object's
        sink edge all leave, until its source edge is full.  The level-graph
        walk does the same: it leaves a demand edge once that edge or the
        object's sink edge is full, and the agent once its source edge is.
        """
        head, residual, adj = self.head, self.residual, self.adj
        # Object j's sink edge is edge m + j - 1: its forward arc is
        # base + 2j.
        base = 2 * (m - 1)
        pushed = 0
        for i in range(1, p + 1):
            source_arc = 2 * i - 2
            left = residual[source_arc]
            if not left:
                continue
            # adj[i] starts with the reverse source arc, whose residual is 0.
            for arc in adj[i]:
                d = residual[arc]
                if not d:
                    continue
                out = base + 2 * head[arc]
                s = residual[out]
                if not s:
                    continue
                f = left if left < d else d
                if s < f:
                    f = s
                residual[arc] = d - f
                residual[arc + 1] = f
                residual[out] = s - f
                residual[out + 1] += f
                left -= f
                if not left:
                    break
            f = residual[source_arc] - left
            residual[source_arc] = left
            residual[source_arc + 1] = f
            pushed += f
        return pushed

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


def _endpoints(network: FlowNetwork, arc: int) -> str:
    return f"{network.head[arc + 1]} -> {network.head[arc]}"


def max_flow(network: FlowNetwork) -> Flow:
    """Compute a maximum flow: Dinic's algorithm on the integral network,
    with the first phase as one sweep."""
    flow = Flow(network)
    value = flow.first_phase(network.p, network.m)
    sink = network.n - 1
    while True:
        level = flow.levels_from_source()
        if level[sink] < 0:
            break
        value += flow.blocking_flow(level)
    flow.value = value
    return flow


def source_heavy_min_cut(network: FlowNetwork, flow: Flow) -> frozenset:
    """Source side of the unique minimum cut whose source side contains every
    minimum cut's source side: the complement of the vertices that can still
    reach the sink in the flow's residual graph.  A minimum cut's capacity is
    the flow value.

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
    # edge's capacity.
    capacity = 0
    for arc in range(0, len(head), 2):
        if reaches_sink[head[arc]] and not reaches_sink[head[arc + 1]]:
            capacity += residual[arc] + residual[arc + 1]
    if capacity != flow.value:
        raise InternalCheckError(
            f"flow is not maximum: cut capacity {capacity} != flow value {flow.value}"
        )
    return frozenset(v for v, r in enumerate(reaches_sink) if not r)
