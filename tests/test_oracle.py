"""Brute-force references: subset-enumeration rates, samplers, tiny maximin rule.

``reference_oracle_breakpoints`` is the subset-enumeration oracle as it ran
before it scaled the instance to ints: every subset sum, minimum and ratio is
a ``Rational``.  ``oracle_breakpoints`` must return an equal profile whose
rates are backend ``Rational``s.
"""

from typing import Optional

import pytest

from conftest import breakpoint_example, capacity, staircase
from leximinflow import harness
from leximinflow.core import Instance, capped_supply, utilities
from leximinflow.generators import random_instance, si_bound_instance, si_misreport_instance
from leximinflow.harness import check_substructure
from leximinflow.leximin import BreakpointProfile, breakpoints, lexicographic_allocation
from leximinflow.oracle import (
    GridInfeasibleError,
    oracle_breakpoints,
    oracle_mmf_si,
    random_frugal_allocation,
)
from leximinflow.properties import is_frugal
from leximinflow.rational import Rational, ZERO


def reference_oracle_breakpoints(instance: Instance) -> BreakpointProfile:
    """Tier structure by subset enumeration on ``Rational``s: per tier, the
    least joint-capacity / joint-endowment over the remaining agents'
    nonempty subsets, and the union of every minimizing subset."""
    capped = capped_supply(instance)
    remaining = list(instance.agents)
    caps = dict(capped)
    fixed: set = set()
    exhausted: set = set()
    lambdas = []
    agent_tiers = []
    object_tiers = []
    per_agent = {}
    while remaining:
        active = [b for b in instance.objects if b not in exhausted]
        n = len(remaining)
        endow_rows = [ZERO] * (1 << n)
        object_sums = [[ZERO] * (1 << n) for _ in active]
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            sub = mask & (mask - 1)
            agent = remaining[low]
            endow_rows[mask] = endow_rows[sub] + instance.endowment[agent]
            for j, b in enumerate(active):
                object_sums[j][mask] = object_sums[j][sub] + instance.demand_between(agent, b)
        best: Optional[Rational] = None
        union: set = set()
        for mask in range(1, 1 << n):
            cap_sum = ZERO
            for j, b in enumerate(active):
                cap_sum += min(caps[b], object_sums[j][mask])
            ratio = cap_sum / endow_rows[mask]
            if best is None or ratio < best:
                best = ratio
                union = {remaining[i] for i in range(n) if mask >> i & 1}
            elif ratio == best:
                union |= {remaining[i] for i in range(n) if mask >> i & 1}
        tier = union
        newly = {
            b for b in active
            if sum((instance.demand_between(a, b) for a in tier), ZERO) > caps[b]
        }
        fixed |= tier
        exhausted |= newly
        lambdas.append(best)
        agent_tiers.append(frozenset(tier))
        object_tiers.append(frozenset(newly))
        for a in tier:
            per_agent[a] = best
        remaining = [a for a in remaining if a not in tier]
        for b in instance.objects:
            if b not in exhausted:
                caps[b] = capped[b] - sum((instance.demand_between(a, b) for a in fixed), ZERO)
    return BreakpointProfile(
        lambdas=tuple(lambdas),
        agent_tiers=tuple(agent_tiers),
        object_tiers=tuple(object_tiers),
        per_agent=per_agent,
    )


def assert_matches_reference(instance: Instance) -> BreakpointProfile:
    profile = oracle_breakpoints(instance)
    assert profile == reference_oracle_breakpoints(instance)
    rates = [*profile.lambdas, *profile.per_agent.values()]
    assert all(type(rate) is Rational for rate in rates)
    return profile


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


def test_int_oracle_matches_the_reference_on_both_corpora(corpus, equal_corpus):
    for inst in corpus + equal_corpus:
        assert_matches_reference(inst)


def test_int_oracle_matches_the_reference_at_twelve_agents():
    # 10, 7 and 12 tiers.
    for inst in (random_instance(1, 12, 6, 0.3), random_instance(3, 12, 6, 0.3), staircase(12)):
        assert len(inst.agents) == 12
        assert assert_matches_reference(inst).k >= 7


def test_int_oracle_matches_the_reference_on_edge_instances():
    # a3 demands nothing and nobody demands b3.
    agents = ("a1", "a2", "a3")
    objects = ("b1", "b2", "b3")
    endowment = {"a1": 1, "a2": Rational(1, 2), "a3": 3}
    demand = {("a1", "b1"): 2, ("a1", "b2"): 1, ("a2", "b2"): Rational(5, 3)}
    expected = (
        ({"b1": 0, "b2": 0, "b3": 0}, (ZERO,)),
        ({"b1": 1, "b2": 0, "b3": 4}, (ZERO, Rational(1))),
        # Supply above total demand: every agent freezes at its full demand.
        ({"b1": 9, "b2": 7, "b3": 2}, (ZERO, Rational(3), Rational(10, 3))),
    )
    for supply, lambdas in expected:
        inst = Instance(agents, endowment, objects, supply, demand)
        assert assert_matches_reference(inst).lambdas == lambdas


def test_int_oracle_matches_the_reference_on_prime_denominators():
    inst = Instance(
        ("a1", "a2", "a3"),
        {"a1": Rational(1, 97), "a2": Rational(1, 101), "a3": Rational(3, 97)},
        ("b1", "b2"),
        {"b1": Rational(1, 101), "b2": Rational(50, 97)},
        {("a1", "b1"): Rational(1, 97), ("a2", "b1"): Rational(2, 101),
         ("a2", "b2"): Rational(1, 101), ("a3", "b2"): Rational(1)},
    )
    profile = assert_matches_reference(inst)
    assert profile.lambdas == (Rational(97, 101), Rational(1), Rational(1651, 101))


def test_int_oracle_matches_the_reference_on_substructure_residuals(corpus, monkeypatch):
    residuals = []

    def recorded(residual):
        residuals.append(residual)
        return oracle_breakpoints(residual)

    monkeypatch.setattr(harness, "oracle_breakpoints", recorded)
    for inst in corpus[:100]:
        allocation, _ = lexicographic_allocation(inst)
        assert check_substructure(inst, allocation, trials=5, seed=0).passed
    assert len(residuals) > 300
    for residual in residuals:
        assert_matches_reference(residual)


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

