"""Max flow, minimum cuts, and the source-heavy minimum cut."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
