"""Max flow, minimum cuts, and the source-heavy minimum cut."""

import itertools
import random
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hand_made_flow, staircase
from leximinflow import leximin
from leximinflow.core import InternalCheckError
from leximinflow.maxflow import (
    CutResult,
    Flow,
    FlowNetwork,
    max_flow,
    source_heavy_min_cut,
)
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
    """Dinic's algorithm in exact rational arithmetic: the reference for the
    integer-scaled ``max_flow``."""
    residual = _ReferenceResidual(network)
    value = ZERO
    while True:
        level = residual.levels_from_source()
        if level[residual.sink] < 0:
            break
        value += residual.blocking_flow(level)
    return ReferenceFlow(tuple(residual.residual[1::2]), value)


def reference_source_heavy_min_cut(network: FlowNetwork, flow: Flow) -> CutResult:
    """The source-heavy minimum cut as the solver read it before it kept the
    integer residual graph: a walk over the rational edge flows and a
    rational sum of the cut, with both self-checks.  The reference for
    ``source_heavy_min_cut``."""
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
    return CutResult(source_side, capacity)


def assert_matches_reference(net: FlowNetwork) -> Flow:
    """``max_flow`` and the reference agree exactly, down to the number
    type, on the flow and on the source-heavy minimum cut read off it."""
    flow = max_flow(net)
    expected = reference_max_flow(net)
    assert repr((flow.edge_flows(), flow.value)) == repr((expected.edge_flows(), expected.value))
    cut = source_heavy_min_cut(net, flow)
    expected_cut = reference_source_heavy_min_cut(net, expected)
    assert cut == expected_cut
    assert repr(cut.capacity) == repr(expected_cut.capacity)
    return flow


def network(edges, extra_vertices=()):
    """The network of edges between named vertices: ``s`` is 0, ``t`` is
    n-1, and the other names take 1..n-2 in sorted order."""
    middle = sorted(
        {v for e in edges for v in e[:2] if v not in ("s", "t")} | set(extra_vertices)
    )
    index = {"s": 0, **{v: i for i, v in enumerate(middle, 1)}, "t": len(middle) + 1}
    return FlowNetwork(len(index), tuple((index[t], index[h], c) for t, h, c in edges))


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


def test_single_edge_value():
    net = network([("s", "t", 5)])
    flow = max_flow(net)
    assert flow.value == Rational(5)
    assert flow_violations(net, flow) == []


def test_series_parallel_value():
    net = network([("s", "u", 3), ("u", "t", 1), ("s", "v", 2), ("v", "t", 4)])
    assert max_flow(net).value == Rational(3)


def test_min_cut_of_single_saturated_edge():
    net = network([("s", "t", 5)])
    cut = source_heavy_min_cut(net, max_flow(net))
    assert cut.source_side == frozenset({0})  # s
    assert cut.capacity == Rational(5)


def test_min_cut_when_bottleneck_is_at_the_sink():
    net = network([("s", "u", 9), ("s", "v", 9), ("u", "t", 1), ("v", "t", 2)])
    cut = source_heavy_min_cut(net, max_flow(net))
    assert cut.source_side == frozenset({0, 1, 2})  # s, u, v
    assert cut.capacity == Rational(3)


def test_source_heavy_equals_min_cut_when_unique():
    net = network([("s", "u", 1), ("u", "t", 5)])
    flow = max_flow(net)
    assert source_heavy_min_cut(net, flow) == CutResult(frozenset({0}), Rational(1))  # s


def test_source_heavy_takes_the_larger_of_two_min_cuts():
    net = network([("s", "v", 1), ("v", "t", 1)])
    flow = max_flow(net)
    assert source_heavy_min_cut(net, flow).source_side == frozenset({0, 1})  # s, v


def test_rejects_non_maximum_flow():
    net = network([("s", "t", 5)])
    short = hand_made_flow(net, (ZERO,), ZERO)
    mislabeled = hand_made_flow(net, (Rational(5),), Rational(3))
    for cut in (source_heavy_min_cut, reference_source_heavy_min_cut):
        with pytest.raises(InternalCheckError, match="not maximum: sink reachable"):
            cut(net, short)
        with pytest.raises(InternalCheckError, match="not maximum: cut capacity 5 != flow value 3"):
            cut(net, mislabeled)


def test_network_validation():
    # The source 0 and the sink n-1 must differ.
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"needs at least 2 vertices, got {n}"):
            max_flow(FlowNetwork(n, ()))
    # Edges are checked where max_flow scales them.
    with pytest.raises(ValueError, match=r"edge 0 -> 2 leaves the vertices 0\.\.1"):
        max_flow(FlowNetwork(2, ((0, 2, 1),)))
    # Without the range check, -1 would silently be the sink.
    with pytest.raises(ValueError, match=r"edge -1 -> 1 leaves the vertices 0\.\.1"):
        max_flow(FlowNetwork(2, ((-1, 1, 1),)))
    with pytest.raises(ValueError, match="negative capacity on edge 0 -> 1: -1"):
        max_flow(FlowNetwork(2, ((0, 1, -1),)))


def test_flow_violations_reports_bad_flows():
    net = network([("s", "u", 2), ("u", "t", 2)])
    overfull = hand_made_flow(net, (3, 3), 3)
    assert any("outside" in line for line in flow_violations(net, overfull))
    leaky = hand_made_flow(net, (2, 1), 2)
    assert any("conservation" in line for line in flow_violations(net, leaky))
    mislabeled = hand_made_flow(net, (2, 2), 1)
    assert any("stated value" in line for line in flow_violations(net, mislabeled))


def test_determinism():
    edges = [("s", "u", 3), ("s", "v", 2), ("u", "v", 1), ("u", "t", 1), ("v", "t", 4)]
    net = network(edges)
    first, second = max_flow(net), max_flow(net)
    assert repr((first.edge_flows(), first.value)) == repr((second.edge_flows(), second.value))


def random_network(seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    n = rng.randint(0, 5) + 2
    edges = []
    for tail, head in itertools.permutations(range(n), 2):
        if head == 0 or tail == n - 1:
            continue
        if rng.random() < 0.45:
            edges.append((tail, head, Rational(rng.randint(0, 12), rng.randint(1, 8))))
    return FlowNetwork(n, edges)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_flow_and_cuts_agree_with_brute_force(seed):
    net = random_network(seed)
    flow = max_flow(net)
    assert flow_violations(net, flow) == []

    cuts = brute_force_cuts(net)
    best = min(cap for _, cap in cuts)
    assert flow.value == best

    heavy = source_heavy_min_cut(net, flow)
    assert heavy == reference_source_heavy_min_cut(net, flow)
    assert heavy.capacity == flow.value
    assert (heavy.source_side, heavy.capacity) in cuts
    for side, cap in cuts:
        if cap == best:
            # The source-heavy cut contains every minimum cut's source side.
            assert side <= heavy.source_side


def test_cut_result_is_plain_data():
    cut = CutResult(source_side=frozenset({0}), capacity=Rational(1))
    assert cut.capacity == 1
    assert 0 in cut.source_side


# Denominators mixed within one network, including large coprime ones.
DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 25, 10**6 + 3, 2**31 - 1, 2**61 - 1, 10**30)


def mixed_denominator_network(seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    n = rng.randint(0, 6) + 2
    edges = []
    for tail, head in itertools.permutations(range(n), 2):
        if head == 0 or tail == n - 1:
            continue
        if rng.random() < 0.5:
            den = rng.choice(DENOMINATORS)
            edges.append((tail, head, Rational(rng.randint(0, 3 * den), den)))
    return FlowNetwork(n, edges)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_max_flow_matches_reference_on_mixed_denominators(seed):
    net = mixed_denominator_network(seed)
    assert flow_violations(net, assert_matches_reference(net)) == []


def test_max_flow_matches_reference_on_solver_networks(corpus, monkeypatch):
    """Every network the solver builds, on a corpus slice and on staircases
    with 2-24 tiers."""
    networks = []

    def capture(network):
        networks.append(network)
        return max_flow(network)

    monkeypatch.setattr(leximin, "max_flow", capture)
    for inst in corpus[:60] + [staircase(n) for n in range(2, 25)]:
        leximin.lexicographic_allocation(inst)
    assert len(networks) > 1000
    for net in networks:
        assert_matches_reference(net)


P61 = 2**61 - 1


@pytest.mark.parametrize(
    "edges, value",
    [
        pytest.param([("s", "u", 3), ("u", "t", 2), ("s", "t", 1)], 3, id="int-capacities"),
        pytest.param(
            [("s", "u", 0), ("u", "t", Rational(5, 3)), ("s", "v", Rational(0, 7)),
             ("v", "t", 4), ("s", "t", 0)],
            0,
            id="zero-capacities",
        ),
        pytest.param([], 0, id="no-edges"),
        pytest.param(
            [("s", "u", Rational(1, P61)), ("s", "v", Rational(10**40, 7)),
             ("u", "v", Rational(3, 10**30)), ("u", "t", Rational(1, P61)),
             ("v", "t", Rational(3, 10**30)), ("s", "t", Rational(10**40, 7))],
            Rational(10**40, 7) + Rational(1, P61) + Rational(3, 10**30),
            id="large-coprime-denominators",
        ),
    ],
)
def test_max_flow_exact_edge_cases(edges, value):
    net = network(edges, extra_vertices=("u", "v"))
    flow = assert_matches_reference(net)
    assert flow.value == value
    assert flow_violations(net, flow) == []
