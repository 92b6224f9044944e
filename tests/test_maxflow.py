"""Max flow, minimum cuts, and the source-heavy minimum cut."""

import itertools
import random
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hand_made_flow, scaled, staircase
from leximinflow import leximin
from leximinflow.core import InternalCheckError
from leximinflow.generators import random_instance
from leximinflow.maxflow import Flow, FlowNetwork, max_flow, source_heavy_min_cut
from leximinflow.rational import Rational, ZERO


def flow_violations(network: FlowNetwork, flow: Flow) -> list[str]:
    """Check capacity and conservation constraints; empty list iff a valid flow."""
    violations = []
    excess = [ZERO] * network.n
    for (tail, head, cap), f in zip(network.edges, flow.edge_flows()):
        if f < ZERO or f > cap:
            violations.append(f"edge {tail!r} -> {head!r}: flow {f} outside [0, {cap}]")
        excess[tail] -= f
        excess[head] += f
    for v in range(1, network.n - 1):
        if excess[v] != ZERO:
            violations.append(f"conservation violated at {v!r}: excess {excess[v]}")
    if excess[-1] != flow.value:
        violations.append(f"stated value {flow.value} != net flow into sink {excess[-1]}")
    return violations


class _ReferenceResidual:
    """Dinic's residual graph on the exact rational capacities, as the solver
    ran it before it scaled networks to integers: arc 2i is edge i forward,
    arc 2i+1 its reverse."""

    def __init__(self, network: FlowNetwork):
        n = network.n
        self.head: list[int] = []
        self.residual: list[Rational] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for t, h, cap in network.edges:
            self.adj[t].append(len(self.head))
            self.head.append(h)
            self.residual.append(cap)
            self.adj[h].append(len(self.head))
            self.head.append(t)
            self.residual.append(ZERO)
        self.source = 0
        self.sink = n - 1
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


@dataclass(frozen=True)
class ReferenceFlow:
    """Rational edge flows and value, read the way a ``Flow`` is read."""

    flows: tuple
    value: Rational

    def edge_flows(self) -> tuple:
        return self.flows


def reference_max_flow(network: FlowNetwork) -> ReferenceFlow:
    """Dinic's algorithm in exact rational arithmetic: the reference for
    ``max_flow`` on the integer-scaled network."""
    residual = _ReferenceResidual(network)
    value = ZERO
    while True:
        level = residual.levels_from_source()
        if level[residual.sink] < 0:
            break
        value += residual.blocking_flow(level)
    return ReferenceFlow(tuple(residual.residual[1::2]), value)


def reference_source_heavy_min_cut(network: FlowNetwork, flow: Flow) -> tuple:
    """The source-heavy minimum cut as the solver read it before it kept the
    integer residual graph: a walk over the rational edge flows and a
    rational sum of the cut, with both self-checks.  The reference for
    ``source_heavy_min_cut``, as (source side, capacity)."""
    # Residual arcs grouped by head: an edge below capacity gives tail -> head,
    # an edge carrying flow gives head -> tail.
    tails: dict = {}
    for (tail, head, cap), f in zip(network.edges, flow.edge_flows()):
        if f < cap:
            tails.setdefault(head, []).append(tail)
        if f > ZERO:
            tails.setdefault(tail, []).append(head)
    sink = network.n - 1
    reaches_sink = {sink}
    stack = [sink]
    while stack:
        for u in tails.get(stack.pop(), ()):
            if u not in reaches_sink:
                reaches_sink.add(u)
                stack.append(u)
    if 0 in reaches_sink:
        raise InternalCheckError("flow is not maximum: sink reachable in residual graph")
    source_side = frozenset(v for v in range(network.n) if v not in reaches_sink)
    capacity = ZERO
    for tail, head, cap in network.edges:
        if tail in source_side and head not in source_side:
            capacity += cap
    if capacity != flow.value:
        raise InternalCheckError(
            f"flow is not maximum: cut capacity {capacity} != flow value {flow.value}"
        )
    return source_side, capacity


def assert_matches_reference(net: FlowNetwork) -> Rational:
    """``max_flow`` on the integer-scaled network returns ints, a valid flow
    there, and, divided back by the scale, agrees exactly with the rational
    reference, down to the number type, on the flow and on the source-heavy
    minimum cut read off it.  Returns the flow value in ``net``'s units."""
    integral, scale = scaled(net)
    flow = max_flow(integral)
    assert {type(f) for f in (flow.value, *flow.edge_flows())} == {int}
    assert flow_violations(integral, flow) == []
    value = Rational(flow.value, scale)
    expected = reference_max_flow(net)
    edge_flows = tuple(Rational(f, scale) for f in flow.edge_flows())
    assert repr((edge_flows, value)) == repr((expected.edge_flows(), expected.value))
    cut = source_heavy_min_cut(integral, flow), value
    expected_cut = reference_source_heavy_min_cut(net, expected)
    assert cut == expected_cut
    assert repr(cut) == repr(expected_cut)
    return value


def path(cap_in, cap_mid, cap_out):
    """s -> u -> x -> t: one agent demanding one object."""
    return FlowNetwork({"u": cap_in}, {("u", "x"): cap_mid}, {"x": cap_out})


def brute_force_cuts(net: FlowNetwork):
    """All source/sink cuts with their capacities, by subset enumeration."""
    others = range(1, net.n - 1)
    assert len(others) <= 10
    cuts = []
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = frozenset(chosen) | {0}
            cap = ZERO
            for tail, head, c in net.edges:
                if tail in side and head not in side:
                    cap += c
            cuts.append((side, cap))
    return cuts


def test_network_layout():
    # Source edges, then demand edges in the mapping's order, then sink
    # edges; demand and sink capacities times the scale.
    net = FlowNetwork({"u": 3, "v": 2}, {("v", "x"): 1, ("u", "y"): 4, ("u", "x"): 5},
                      {"x": 6, "y": 7}, 10)
    assert net.n == 6
    assert net.edges == (
        (0, 1, 3), (0, 2, 2),
        (2, 3, 10), (1, 4, 40), (1, 3, 50),
        (3, 5, 60), (4, 5, 70),
    )
    assert net.adj == [[0, 2], [1, 6, 8], [3, 4], [5, 9, 10], [7, 12], [11, 13]]
    assert FlowNetwork({}, {}, {}).edges == ()


def test_single_edge_value():
    # The bipartite network's nearest to one edge: one path.
    net = path(5, 7, 9)
    flow = max_flow(net)
    assert flow.value == Rational(5)
    assert flow_violations(net, flow) == []


def test_series_parallel_value():
    # Two parallel paths, each bottlenecked in its middle or at its source.
    net = FlowNetwork({"u": 3, "v": 2}, {("u", "x"): 1, ("v", "y"): 4}, {"x": 9, "y": 9})
    assert max_flow(net).value == Rational(3)


def test_min_cut_of_single_saturated_edge():
    net = path(5, 9, 9)
    flow = max_flow(net)
    assert source_heavy_min_cut(net, flow) == frozenset({0})  # s
    assert flow.value == Rational(5)


def test_min_cut_when_bottleneck_is_at_the_sink():
    net = FlowNetwork({"u": 9, "v": 9}, {("u", "x"): 9, ("v", "y"): 9}, {"x": 1, "y": 2})
    flow = max_flow(net)
    assert source_heavy_min_cut(net, flow) == frozenset({0, 1, 2, 3, 4})  # s, u, v, x, y
    assert flow.value == Rational(3)


def test_source_heavy_equals_min_cut_when_unique():
    net = path(1, 5, 5)
    flow = max_flow(net)
    assert (source_heavy_min_cut(net, flow), flow.value) == (frozenset({0}), Rational(1))  # s


def test_source_heavy_takes_the_larger_of_two_min_cuts():
    # The source edge and the sink edge are the two minimum cuts.
    net = path(1, 2, 1)
    flow = max_flow(net)
    assert source_heavy_min_cut(net, flow) == frozenset({0, 1, 2})  # s, u, x


def test_rejects_non_maximum_flow():
    net = path(5, 5, 5)
    short = hand_made_flow(net, (0, 0, 0), 0)
    mislabeled = hand_made_flow(net, (5, 5, 5), 3)
    for cut in (source_heavy_min_cut, reference_source_heavy_min_cut):
        with pytest.raises(InternalCheckError, match="not maximum: sink reachable"):
            cut(net, short)
        with pytest.raises(InternalCheckError, match="not maximum: cut capacity 5 != flow value 3"):
            cut(net, mislabeled)


def test_network_validation():
    # A demand edge must run from a listed agent to a listed object.
    with pytest.raises(ValueError, match="demand edge 'u' -> 'y' leaves the network's agents"):
        FlowNetwork({"u": 1}, {("u", "y"): 1}, {"x": 1})
    with pytest.raises(ValueError, match="demand edge 'w' -> 'x' leaves the network's agents"):
        FlowNetwork({"u": 1}, {("w", "x"): 1}, {"x": 1})
    # Capacities are checked where Flow reads them, on every kind of edge.
    with pytest.raises(ValueError, match="negative capacity on edge 0 -> 1: -1"):
        max_flow(path(-1, 1, 1))
    with pytest.raises(ValueError, match="negative capacity on edge 1 -> 2: -1"):
        max_flow(path(1, -1, 1))
    with pytest.raises(ValueError, match="negative capacity on edge 2 -> 3: -1"):
        max_flow(path(1, 1, -1))
    # Callers scale their networks to integers; max_flow does not.
    with pytest.raises(ValueError, match="non-integral capacity on edge 0 -> 1: 1/2"):
        max_flow(path(Rational(1, 2), 1, 1))
    with pytest.raises(ValueError, match="non-integral capacity on edge 1 -> 2: 1/2"):
        max_flow(path(1, Rational(1, 2), 1))
    with pytest.raises(ValueError, match="non-integral capacity on edge 2 -> 3: 1/2"):
        max_flow(path(1, 1, Rational(1, 2)))
    # So is an integral rational: every capacity must be a Python int.
    with pytest.raises(ValueError, match=r"non-integral capacity on edge 0 -> 1: 2 is a \w+, not"):
        max_flow(path(Rational(4, 2), 3, 3))
    flow = max_flow(path(2, 3, 3))
    assert (flow.value, flow.edge_flows()) == (2, (2, 2, 2))
    assert {type(f) for f in (flow.value, *flow.edge_flows())} == {int}


def test_flow_violations_reports_bad_flows():
    net = path(2, 2, 2)
    overfull = hand_made_flow(net, (3, 3, 3), 3)
    assert any("outside" in line for line in flow_violations(net, overfull))
    leaky = hand_made_flow(net, (2, 1, 1), 1)
    assert any("conservation" in line for line in flow_violations(net, leaky))
    mislabeled = hand_made_flow(net, (2, 2, 2), 1)
    assert any("stated value" in line for line in flow_violations(net, mislabeled))


def test_determinism():
    net = FlowNetwork(
        {"u": 3, "v": 2, "w": 4},
        {("u", "x"): 1, ("u", "y"): 3, ("v", "x"): 2, ("w", "y"): 2, ("w", "x"): 1},
        {"x": 2, "y": 4},
    )
    first, second = max_flow(net), max_flow(net)
    assert repr((first.edge_flows(), first.value)) == repr((second.edge_flows(), second.value))


def random_network(rng: random.Random, capacity) -> FlowNetwork:
    """A bipartite network of 0-4 agents and 0-4 objects, each agent-object
    pair a demand edge with probability 0.5, in a random order, and every
    capacity drawn by ``capacity(rng)``."""
    agents = [f"a{i}" for i in range(rng.randint(0, 4))]
    objects = [f"b{j}" for j in range(rng.randint(0, 4))]
    pairs = [(a, b) for a in agents for b in objects if rng.random() < 0.5]
    rng.shuffle(pairs)
    return FlowNetwork(
        {a: capacity(rng) for a in agents},
        {k: capacity(rng) for k in pairs},
        {b: capacity(rng) for b in objects},
    )


def small_capacity(rng: random.Random) -> Rational:
    return Rational(rng.randint(0, 12), rng.randint(1, 8))


def first_phase_matches_the_level_graph_walk(net: FlowNetwork) -> None:
    """On a fresh network, the first-phase sweep leaves the residuals that
    Dinic's first BFS and level-graph walk leave, and pushes as much."""
    swept, walked = Flow(net), Flow(net)
    pushed = swept.first_phase(net.p, net.m)
    assert (swept.residual, pushed) == (walked.residual, walked.blocking_flow(
        walked.levels_from_source()
    ))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_flow_and_cuts_agree_with_brute_force(seed):
    net = random_network(random.Random(seed), small_capacity)
    integral, scale = scaled(net)
    first_phase_matches_the_level_graph_walk(integral)
    flow = max_flow(integral)
    assert flow_violations(integral, flow) == []

    cuts = brute_force_cuts(net)
    best = min(cap for _, cap in cuts)
    value = Rational(flow.value, scale)
    assert value == best

    heavy = source_heavy_min_cut(integral, flow)
    assert (heavy, flow.value) == reference_source_heavy_min_cut(integral, flow)
    assert (heavy, value) in cuts
    for side, cap in cuts:
        if cap == best:
            # The source-heavy cut contains every minimum cut's source side.
            assert side <= heavy


# Denominators mixed within one network, including large coprime ones.
DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 25, 10**6 + 3, 2**31 - 1, 2**61 - 1, 10**30)


def mixed_capacity(rng: random.Random) -> Rational:
    den = rng.choice(DENOMINATORS)
    return Rational(rng.randint(0, 3 * den), den)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_max_flow_matches_reference_on_mixed_denominators(seed):
    assert_matches_reference(random_network(random.Random(seed), mixed_capacity))


def test_max_flow_matches_reference_on_solver_networks(corpus, monkeypatch):
    """Every network the solver builds, on a corpus slice, on staircases
    with 2-24 tiers and on sparse 12x12 instances with about 8 tiers."""
    networks = []

    def capture(network):
        networks.append(network)
        return max_flow(network)

    monkeypatch.setattr(leximin, "max_flow", capture)
    # Single-agent tiers take no flow, so 60 sparse instances keep the
    # networks above 1000.
    sparse = [random_instance(seed, 12, 12, 0.2) for seed in range(60)]
    for inst in corpus[:60] + [staircase(n) for n in range(2, 25)] + sparse:
        leximin.lexicographic_allocation(inst)
    assert len(networks) > 1000
    # The solver scales every network to ints itself.
    assert {type(c) for net in networks for _, _, c in net.edges} == {int}
    for net in networks:
        first_phase_matches_the_level_graph_walk(net)
        assert_matches_reference(net)


P61 = 2**61 - 1


@pytest.mark.parametrize(
    "source_caps, demand, sink_caps, value",
    [
        # The agent w, its object y and their edges stand in for a direct
        # source-to-sink edge.
        pytest.param(
            {"u": 3, "w": 1}, {("u", "x"): 2, ("w", "y"): 1}, {"x": 3, "y": 1}, 3,
            id="int-capacities",
        ),
        pytest.param(
            {"u": 0, "v": Rational(0, 7), "w": 0},
            {("u", "x"): Rational(5, 3), ("v", "y"): 4, ("w", "x"): 0},
            {"x": Rational(5, 3), "y": 4},
            0,
            id="zero-capacities",
        ),
        pytest.param({}, {}, {}, 0, id="no-edges"),
        pytest.param(
            {"u": Rational(1, P61) + Rational(3, 10**30), "v": Rational(10**40, 7)},
            {("u", "x"): Rational(1, P61), ("u", "y"): Rational(3, 10**30),
             ("v", "y"): Rational(10**40, 7)},
            {"x": Rational(1, P61), "y": Rational(3, 10**30) + Rational(10**40, 7)},
            Rational(10**40, 7) + Rational(1, P61) + Rational(3, 10**30),
            id="large-coprime-denominators",
        ),
        # The sweep's edge cases.
        pytest.param(
            {"u": 0, "v": 2}, {("u", "x"): 5, ("v", "x"): 5}, {"x": 5}, 2,
            id="agent-with-source-cap-0",
        ),
        pytest.param(
            {"u": 4, "v": 4}, {("u", "x"): 3, ("u", "y"): 3, ("v", "y"): 3},
            {"x": 0, "y": 5}, 5,
            id="object-with-cap-0",
        ),
        pytest.param(
            {"u": 4}, {("u", "y"): 3}, {"x": 7, "y": 5, "z": 2}, 3,
            id="object-that-no-agent-demands",
        ),
        pytest.param(
            {"u": 4, "v": 0}, {("u", "x"): 0, ("v", "y"): 3}, {"x": 7, "y": 5}, 0,
            id="sink-that-no-agent-reaches",
        ),
        # w's objects are full once u and v have pushed; the second phase
        # reroutes v through z to make room for w on y.
        pytest.param(
            {"u": 3, "v": 2, "w": 2},
            {("u", "x"): 3, ("v", "y"): 2, ("v", "z"): 2, ("w", "x"): 2, ("w", "y"): 2},
            {"x": 3, "y": 2, "z": 2},
            7,
            id="agent-whose-objects-are-full-before-its-turn",
        ),
        pytest.param(
            {"u": 4, "v": 1}, {}, {"x": 7, "y": 5}, 0, id="no-demand-edges",
        ),
    ],
)
def test_max_flow_exact_edge_cases(source_caps, demand, sink_caps, value):
    net = FlowNetwork(source_caps, demand, sink_caps)
    first_phase_matches_the_level_graph_walk(scaled(net)[0])
    assert assert_matches_reference(net) == value
