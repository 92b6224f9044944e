"""Max flow, minimum cuts, and the source-heavy minimum cut."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import staircase
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
    excess = {v: ZERO for v in network.vertices}
    for (tail, head, cap), f in zip(network.edges, flow.edge_flows):
        if f < ZERO or f > cap:
            violations.append(f"edge {tail!r} -> {head!r}: flow {f} outside [0, {cap}]")
        excess[tail] -= f
        excess[head] += f
    for v in network.vertices:
        if v in (network.source, network.sink):
            continue
        if excess[v] != ZERO:
            violations.append(f"conservation violated at {v!r}: excess {excess[v]}")
    if excess[network.sink] != flow.value:
        violations.append(f"stated value {flow.value} != net flow into sink {excess[network.sink]}")
    return violations


class _ReferenceResidual:
    """Dinic's residual graph on the exact rational capacities, as the solver
    ran it before it scaled networks to integers: arc 2i is edge i forward,
    arc 2i+1 its reverse."""

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


def reference_max_flow(network: FlowNetwork) -> Flow:
    """Dinic's algorithm in exact rational arithmetic: the reference for the
    integer-scaled ``max_flow``."""
    residual = _ReferenceResidual(network)
    value = ZERO
    while True:
        level = residual.levels_from_source()
        if level[residual.sink] < 0:
            break
        value += residual.blocking_flow(level)
    return Flow(edge_flows=tuple(residual.residual[1::2]), value=value)


def assert_matches_reference(net: FlowNetwork) -> Flow:
    """``max_flow`` and the reference agree exactly, down to the number
    type, on the flow and on the source-heavy minimum cut read off it."""
    flow = max_flow(net)
    expected = reference_max_flow(net)
    assert repr(flow) == repr(expected)
    assert source_heavy_min_cut(net, flow) == source_heavy_min_cut(net, expected)
    return flow


def network(edges, extra_vertices=()):
    vertices = ["s", "t"] + sorted(
        {v for e in edges for v in e[:2] if v not in ("s", "t")} | set(extra_vertices)
    )
    return FlowNetwork(vertices=tuple(vertices), source="s", sink="t", edges=tuple(edges))


def brute_force_cuts(net: FlowNetwork):
    """All source/sink cuts with their capacities, by subset enumeration."""
    others = [v for v in net.vertices if v not in (net.source, net.sink)]
    assert len(others) <= 10
    cuts = []
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = frozenset(chosen) | {net.source}
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
    assert cut.source_side == frozenset({"s"})
    assert cut.capacity == Rational(5)


def test_min_cut_when_bottleneck_is_at_the_sink():
    net = network([("s", "u", 9), ("s", "v", 9), ("u", "t", 1), ("v", "t", 2)])
    cut = source_heavy_min_cut(net, max_flow(net))
    assert cut.source_side == frozenset({"s", "u", "v"})
    assert cut.capacity == Rational(3)


def test_source_heavy_equals_min_cut_when_unique():
    net = network([("s", "u", 1), ("u", "t", 5)])
    flow = max_flow(net)
    assert source_heavy_min_cut(net, flow) == CutResult(frozenset({"s"}), Rational(1))


def test_source_heavy_takes_the_larger_of_two_min_cuts():
    net = network([("s", "v", 1), ("v", "t", 1)])
    flow = max_flow(net)
    assert source_heavy_min_cut(net, flow).source_side == frozenset({"s", "v"})


def test_rejects_non_maximum_flow():
    net = network([("s", "t", 5)])
    lazy = Flow(edge_flows=(ZERO,), value=ZERO)
    with pytest.raises(InternalCheckError):
        source_heavy_min_cut(net, lazy)


def test_network_validation():
    with pytest.raises(ValueError):
        FlowNetwork(("s",), "s", "s", ())
    with pytest.raises(ValueError):
        FlowNetwork(("s", "t", "t"), "s", "t", ())
    with pytest.raises(ValueError):
        FlowNetwork(("s", "t"), "s", "t", (("s", "x", 1),))
    with pytest.raises(ValueError):
        FlowNetwork(("s", "t"), "s", "t", (("s", "t", -1),))
    with pytest.raises(ValueError):
        FlowNetwork(("a", "b"), "s", "t", ())


def test_flow_violations_reports_bad_flows():
    net = network([("s", "u", 2), ("u", "t", 2)])
    overfull = Flow(edge_flows=(Rational(3), Rational(3)), value=Rational(3))
    assert any("outside" in line for line in flow_violations(net, overfull))
    leaky = Flow(edge_flows=(Rational(2), Rational(1)), value=Rational(2))
    assert any("conservation" in line for line in flow_violations(net, leaky))
    mislabeled = Flow(edge_flows=(Rational(2), Rational(2)), value=Rational(1))
    assert any("stated value" in line for line in flow_violations(net, mislabeled))


def test_determinism():
    edges = [("s", "u", 3), ("s", "v", 2), ("u", "v", 1), ("u", "t", 1), ("v", "t", 4)]
    net = network(edges)
    assert max_flow(net) == max_flow(net)


def random_network(seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    middle = [f"v{i}" for i in range(rng.randint(0, 5))]
    vertices = ["s"] + middle + ["t"]
    edges = []
    for tail, head in itertools.permutations(vertices, 2):
        if head == "s" or tail == "t":
            continue
        if rng.random() < 0.45:
            edges.append((tail, head, Rational(rng.randint(0, 12), rng.randint(1, 8))))
    return FlowNetwork(tuple(vertices), "s", "t", tuple(edges))


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
    assert heavy.capacity == flow.value
    assert (heavy.source_side, heavy.capacity) in cuts
    for side, cap in cuts:
        if cap == best:
            # The source-heavy cut contains every minimum cut's source side.
            assert side <= heavy.source_side


def test_cut_result_is_plain_data():
    cut = CutResult(source_side=frozenset({"s"}), capacity=Rational(1))
    assert cut.capacity == 1
    assert "s" in cut.source_side


# Denominators mixed within one network, including large coprime ones.
DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 25, 10**6 + 3, 2**31 - 1, 2**61 - 1, 10**30)


def mixed_denominator_network(seed: int) -> FlowNetwork:
    rng = random.Random(seed)
    middle = [f"v{i}" for i in range(rng.randint(0, 6))]
    vertices = ["s"] + middle + ["t"]
    edges = []
    for tail, head in itertools.permutations(vertices, 2):
        if head == "s" or tail == "t":
            continue
        if rng.random() < 0.5:
            den = rng.choice(DENOMINATORS)
            edges.append((tail, head, Rational(rng.randint(0, 3 * den), den)))
    return FlowNetwork(tuple(vertices), "s", "t", tuple(edges))


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
