"""Brute-force references: subset-enumeration rates, samplers, tiny maximin rule."""

import pytest

from conftest import breakpoint_example, capacity
from leximinflow.core import Instance, utilities
from leximinflow.generators import random_instance, si_bound_instance, si_misreport_instance
from leximinflow.leximin import breakpoints
from leximinflow.oracle import (
    GridInfeasibleError,
    oracle_breakpoints,
    oracle_mmf_si,
    random_frugal_allocation,
)
from leximinflow.properties import is_frugal
from leximinflow.rational import Rational, ZERO


def test_oracle_breakpoints_hand_example():
    profile = oracle_breakpoints(breakpoint_example())
    assert profile.lambdas == (Rational(1), Rational(2))
    assert profile.agent_tiers == (frozenset({"a1"}), frozenset({"a2"}))
    assert profile.object_tiers == (frozenset(), frozenset({"b"}))


def test_oracle_breakpoints_single_shared_tier():
    profile = oracle_breakpoints(si_misreport_instance())
    assert profile.lambdas == (Rational(3),)
    assert profile.agent_tiers == (frozenset({"a1", "a2", "a3"}),)


def test_oracle_breakpoints_single_agent():
    inst = Instance(("a",), {"a": 2}, ("b",), {"b": 3}, {("a", "b"): 5})
    profile = oracle_breakpoints(inst)
    assert profile.lambdas == (capacity(inst, ["a"]) / Rational(2),)


def test_oracle_breakpoints_size_limit():
    agents = tuple(f"a{i}" for i in range(13))
    inst = Instance(agents, {a: 1 for a in agents}, ("b",), {"b": 1}, {})
    with pytest.raises(ValueError):
        oracle_breakpoints(inst)


def test_solver_matches_oracle_on_random_slice(corpus):
    for inst in corpus[:80]:
        assert breakpoints(inst) == oracle_breakpoints(inst)


def test_sampler_zero_demand_yields_zero_allocation():
    inst = Instance(("a",), {"a": 1}, ("b",), {"b": 5}, {})
    assert random_frugal_allocation(inst, 0).amount == {}


def test_sampler_outputs_are_frugal_and_feasible(corpus):
    for inst in corpus[:40]:
        for seed in range(10):
            allocation = random_frugal_allocation(inst, seed)
            assert is_frugal(inst, allocation).passed
            handed_out = {}
            for (_, b), x in allocation.amount.items():
                handed_out[b] = handed_out.get(b, ZERO) + x
            assert all(x <= inst.supply[b] for b, x in handed_out.items())


def test_sampler_is_deterministic_per_seed():
    inst = si_bound_instance(3)
    assert random_frugal_allocation(inst, 7).amount == random_frugal_allocation(inst, 7).amount


def test_full_entitlement_maximin_truthful_value():
    allocation, worst = oracle_mmf_si(si_misreport_instance())
    assert utilities(si_misreport_instance(), allocation)["a1"] == Rational(3)
    assert worst == Rational(3)


def test_full_entitlement_maximin_rewards_inflation():
    inst = si_misreport_instance()
    inflated = Instance(
        agents=inst.agents, endowment=inst.endowment, objects=inst.objects,
        supply=inst.supply, demand={**inst.demand, ("a1", "b2"): Rational(2)},
    )
    allocation, _ = oracle_mmf_si(inflated)
    assert utilities(inst, allocation)["a1"] == Rational(4)  # valued at true demands


def test_full_entitlement_maximin_saturated_case():
    inst = Instance(
        ("a1", "a2"), {"a1": 1, "a2": 1}, ("b",), {"b": 4},
        {("a1", "b"): 1, ("a2", "b"): 1},
    )
    _, worst = oracle_mmf_si(inst)
    assert worst == Rational(1)  # both full demands fit inside proportional shares


def test_full_entitlement_maximin_grid_can_be_infeasible():
    # Three equal agents each need 1/3 of one unit, i.e. 1/2 on the quarter
    # grid, and three halves do not fit.
    three = ("a1", "a2", "a3")
    crowded = Instance(three, {a: 1 for a in three}, ("b",), {"b": 1}, {(a, "b"): 1 for a in three})
    with pytest.raises(GridInfeasibleError):
        oracle_mmf_si(crowded)
    inst = Instance(
        ("a1", "a2"), {"a1": 1, "a2": 1}, ("b",), {"b": 1},
        {("a1", "b"): 1, ("a2", "b"): 1},
    )
    allocation, worst = oracle_mmf_si(inst)
    assert worst == Rational(1, 2)
    assert allocation.amount == {("a1", "b"): Rational(1, 2), ("a2", "b"): Rational(1, 2)}


def test_full_entitlement_maximin_input_limits():
    agents = ("a1", "a2", "a3", "a4")
    too_many = Instance(agents, {a: 1 for a in agents}, ("b",), {"b": 1}, {})
    with pytest.raises(ValueError):
        oracle_mmf_si(too_many)
    wide = Instance(("a",), {"a": 1}, ("b1", "b2", "b3"), {b: 1 for b in ("b1", "b2", "b3")}, {})
    with pytest.raises(ValueError):
        oracle_mmf_si(wide)

