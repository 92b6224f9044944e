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

import pytest

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


def hand_made_flow(network: FlowNetwork, edge_flows, value) -> Flow:
    """A flow with the given edge flows and stated value, maximum or not:
    each edge's scaled flow moves from its forward arc to its reverse arc of
    the zero flow's residual graph."""
    flow = Flow(network)
    for i, f in enumerate(edge_flows):
        scaled = Rational(f) * flow.scale
        if scaled.denominator != 1:
            raise ValueError(f"edge flow {f} is not a multiple of 1/{flow.scale}")
        flow.residual[2 * i] -= int(scaled)
        flow.residual[2 * i + 1] += int(scaled)
    flow.value = Rational(value)
    return flow


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    return [random_instance(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def equal_corpus() -> list[Instance]:
    return [random_instance(seed, equal_endowments=True) for seed in range(CORPUS_SIZE)]
