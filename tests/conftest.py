"""Shared fixtures and hand-built instances for the test suite.

Two seeded 500-instance corpora back every cross-cutting sweep.  ``corpus``
draws each agent's endowment independently; ``equal_corpus`` gives all agents
of an instance one shared endowment.  Prefix-sum dominance between sorted
normalized utility vectors is only a sound requirement when endowments are
shared (see test_properties for the two-agent counterexample), so dominance
sweeps run on ``equal_corpus`` while everything else uses the heterogeneous
corpus, which exercises the endowment-weighted machinery harder.
"""

from __future__ import annotations

import copy
import math

import pytest

from leximinflow import harness
from leximinflow.core import Allocation, Instance, UtilityVector, capped_supply
from leximinflow.generators import random_instance
from leximinflow.maxflow import Flow, FlowNetwork
from leximinflow.rational import Rational, ZERO

CORPUS_SIZE = 500


def breakpoint_example() -> Instance:
    """Two unit-endowment agents share one object of supply 3, demanding 1 and 5.

    Small enough that the full tier structure is hand-checkable: a1 freezes
    alone at rate 1 (it can absorb at most its demand 1), then a2 takes the
    remaining 2 units at rate 2.
    """
    return Instance(
        agents=("a1", "a2"),
        endowment={"a1": 1, "a2": 1},
        objects=("b",),
        supply={"b": 3},
        demand={("a1", "b"): 1, ("a2", "b"): 5},
    )


def staircase(n: int) -> Instance:
    """Agent a_i demands i+1 units of b_i and 1 unit of b_{i+1}, with ample
    supply: each agent absorbs a distinct amount, so there are n tiers."""
    agents = tuple(f"a{i}" for i in range(1, n + 1))
    objects = tuple(f"b{j}" for j in range(1, n + 2))
    demand = {}
    for i in range(1, n + 1):
        demand[(f"a{i}", f"b{i}")] = i + 1
        demand[(f"a{i}", f"b{i + 1}")] = 1
    return Instance(
        agents, {a: 1 for a in agents}, objects, {b: n + 3 for b in objects}, demand
    )


def double_envy_example() -> tuple[Instance, Allocation]:
    """a1 envies both a2 and a3, but the object a1 lists first is held by the
    later agent a3: a walk by object meets a3 before a2.  a1 gets nothing and
    values a2's bundle at 1 and a3's at 2."""
    instance = Instance(
        ("a1", "a2", "a3"), {"a1": 1, "a2": 1, "a3": 1}, ("b1", "b2"), {"b1": 2, "b2": 1},
        {("a1", "b1"): 2, ("a1", "b2"): 1, ("a2", "b2"): 1, ("a3", "b1"): 2},
    )
    return instance, Allocation({("a3", "b1"): 2, ("a2", "b2"): 1})


def capacity(instance: Instance, agent_subset) -> Rational:
    """Maximum total utility jointly reachable by a subset of agents: per
    object, the subset's total demand capped by the demand-capped supply."""
    subset = set(agent_subset)
    if not subset <= set(instance.agents):
        raise ValueError(f"unknown agents in subset: {sorted(subset - set(instance.agents))}")
    capped = capped_supply(instance)
    total = ZERO
    for b in instance.objects:
        demand = sum((instance.demand_between(a, b) for a in subset), ZERO)
        total += min(capped[b], demand)
    return total


def vec(*normalized) -> UtilityVector:
    """Utility vector with unit endowments, for direct comparison tests."""
    values = [Rational(v) for v in normalized]
    return UtilityVector(
        tuple((f"a{i + 1}", v, v) for i, v in enumerate(values))
    )


def scaled(network: FlowNetwork) -> tuple[FlowNetwork, int]:
    """The network with every capacity times the lcm of their denominators,
    as Python ints, and that lcm."""
    # int(): a gmpy2 denominator is an mpz.
    scale = math.lcm(*(int(c.denominator) for c in network.capacity))
    integral = copy.copy(network)
    integral.capacity = [int(c * scale) for c in network.capacity]
    return integral, scale


def hand_made_flow(network: FlowNetwork, edge_flows, value) -> Flow:
    """A flow with the given int edge flows and stated value, maximum or not:
    each edge's flow moves from its forward arc to its reverse arc of the
    zero flow's residual graph."""
    flow = Flow(network)
    for i, f in enumerate(edge_flows):
        flow.residual[2 * i] -= f
        flow.residual[2 * i + 1] += f
    flow.value = value
    return flow


def reference_values(instance: Instance, pair, grid, absolute: bool) -> list:
    """The sorted rational values one entry may report: its true demand times
    each grid multiplier, and with absolute reports also 0 and the object's
    supply."""
    a, b = pair
    true_value = instance.demand_between(a, b)
    values = {m * true_value for m in grid}
    if absolute:
        values |= {ZERO, instance.supply[b]}
    return sorted(values)


def lower_search_baseline(monkeypatch) -> None:
    """Lower every truthful utility of the ``lmmf`` manipulation search by
    1/1000: its baseline is ints u over a unit U, lowered to 1000u - U over
    1000U.  No corpus instance hands a coalition a gain, so this makes runs
    that the search reports."""
    real = harness._truthful

    def lowered(view):
        baseline, unit = real(view)
        return {a: 1000 * u - unit for a, u in baseline.items()}, 1000 * unit

    monkeypatch.setattr(harness, "_truthful", lowered)


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    return [random_instance(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def equal_corpus() -> list[Instance]:
    return [random_instance(seed, equal_endowments=True) for seed in range(CORPUS_SIZE)]
