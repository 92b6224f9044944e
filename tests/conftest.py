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

from leximinflow.core import Instance, UtilityVector, capped_supply
from leximinflow.generators import random_instance
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


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    return [random_instance(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def equal_corpus() -> list[Instance]:
    return [random_instance(seed, equal_endowments=True) for seed in range(CORPUS_SIZE)]
