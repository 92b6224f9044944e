"""The mechanism: networks, per-tier rates, tier structure, allocation, checks."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import breakpoint_example, staircase
from leximinflow.core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    capped_supply,
    object_totals,
    utility,
    utility_vector,
)
from leximinflow.generators import (
    burst_demand_instance,
    random_instance,
    si_bound_instance,
    si_misreport_instance,
)
from leximinflow.leximin import (
    breakpoints,
    build_network,
    lexicographic_allocation,
    min_ratio,
    structure_check,
)
from leximinflow.maxflow import max_flow, source_heavy_min_cut
from leximinflow.oracle import oracle_breakpoints
from leximinflow.rational import ONE, Rational, ZERO


def test_build_network_single_pair():
    inst = Instance(("a",), {"a": 1}, ("b",), {"b": 5}, {("a", "b"): 2})
    net = build_network(inst, {"a": Rational(10)})
    # Source 0, agent a 1, object b 2, sink 3.
    assert net.vertices == (0, 1, 2, 3)
    assert (net.source, net.sink) == (0, 3)
    assert net.edges == (
        (0, 1, Rational(10)),
        (1, 2, Rational(2)),
        (2, 3, Rational(2)),  # supply capped by demand
    )


def test_build_network_omits_zero_demand_edges():
    inst = si_bound_instance(2)
    net = build_network(inst, {a: ONE for a in inst.agents})
    # Source 0, agents a1 a2 1-2, objects b1 b2 3-4, sink 5.
    assert net.vertices == tuple(range(6))
    demand_edges = [(t, h) for t, h, _ in net.edges if t in (1, 2)]
    assert demand_edges == [(1, 3), (1, 4), (2, 3)]  # a2 demands nothing of b2
    sink_caps = {t: c for t, h, c in net.edges if h == net.sink}
    assert sink_caps == {3: Rational(2), 4: Rational(1)}


def test_build_network_empty_instance():
    inst = Instance((), {}, (), {}, {})
    net = build_network(inst, {})
    assert net.vertices == (0, 1)
    assert (net.source, net.sink) == (0, 1)
    assert net.edges == ()


def test_full_demand_source_caps_route_all_effective_supply():
    # With source edges wide enough to pass each agent's entire demand, the
    # max-flow value is exactly the total demand-capped supply.
    inst = si_bound_instance(2)
    caps = {a: sum((d for (x, _), d in inst.demand.items() if x == a), ZERO) for a in inst.agents}
    value = max_flow(build_network(inst, caps)).value
    assert value == sum(capped_supply(inst).values(), ZERO) == Rational(3)


def test_min_cut_capacity_at_the_shared_rate():
    inst = si_misreport_instance()
    net = build_network(inst, {a: Rational(3) * inst.endowment[a] for a in inst.agents})
    flow = max_flow(net)
    assert flow.value == Rational(9)
    assert source_heavy_min_cut(net, flow).capacity == Rational(9)


def test_source_heavy_cut_separates_the_slower_agent():
    inst = breakpoint_example()
    net = build_network(inst, {a: ONE for a in inst.agents})
    cut = source_heavy_min_cut(net, max_flow(net))
    # Agents a1 and a2 are vertices 1 and 2.
    assert 1 in cut.source_side
    assert 2 not in cut.source_side


def single_object_view(caps, demand):
    """(agents, caps, demand) of one object ``b`` shared by the demanders."""
    agents = tuple(sorted({a for a, _ in demand}))
    return agents, {"b": Rational(caps)}, {k: Rational(v) for k, v in demand.items()}


def test_min_ratio_single_agent():
    view = single_object_view(3, {("a", "b"): 1})
    assert min_ratio(*view, {"a": ONE}) == (ONE, frozenset({"a"}))


def test_min_ratio_picks_the_slowest_group():
    inst = breakpoint_example()
    lam, tight = min_ratio(inst.agents, capped_supply(inst), inst.demand, inst.endowment)
    assert lam == ONE
    assert tight == frozenset({"a1"})


def test_min_ratio_returns_the_maximal_tight_set():
    inst = si_misreport_instance()
    lam, tight = min_ratio(inst.agents, capped_supply(inst), inst.demand, inst.endowment)
    assert lam == Rational(3)
    assert tight == frozenset(inst.agents)


def test_min_ratio_rejects_empty_view():
    with pytest.raises(ValueError):
        min_ratio((), {}, {}, {})


def test_breakpoints_hand_example():
    profile = breakpoints(breakpoint_example())
    assert profile.k == 2
    assert profile.lambdas == (ONE, Rational(2))
    assert profile.agent_tiers == (frozenset({"a1"}), frozenset({"a1", "a2"}))
    assert profile.object_tiers == (frozenset(), frozenset({"b"}))
    assert profile.per_agent == {"a1": ONE, "a2": Rational(2)}
    assert profile.tier_of("a1") == 0 and profile.tier_of("a2") == 1
    assert profile.new_agents(1) == frozenset({"a2"})
    assert profile.new_objects(1) == frozenset({"b"})


def test_breakpoints_single_tier_family():
    profile = breakpoints(si_bound_instance(2))
    assert profile.k == 1
    assert profile.lambdas == (Rational(3, 2),)
    assert profile.agent_tiers == (frozenset({"a1", "a2"}),)


def test_breakpoints_all_zero_demands():
    inst = Instance(("a", "b"), {"a": 1, "b": 2}, ("o",), {"o": 4}, {})
    profile = breakpoints(inst)
    assert profile.lambdas == (ZERO,)
    assert profile.agent_tiers == (frozenset({"a", "b"}),)


def test_breakpoints_rejects_invalid_instance():
    with pytest.raises(InvalidInstanceError):
        breakpoints(Instance(("a",), {"a": 0}, (), {}, {}))


def test_allocation_hand_example():
    inst = si_bound_instance(2)
    allocation, profile = lexicographic_allocation(inst)
    assert allocation.amount == {
        ("a1", "b1"): Rational(1, 2),
        ("a1", "b2"): ONE,
        ("a2", "b1"): Rational(3, 2),
    }
    assert utility(allocation, inst, "a1") == Rational(3, 2)
    assert utility(allocation, inst, "a2") == Rational(3, 2)
    assert profile.lambdas == (Rational(3, 2),)


def test_allocation_single_agent_caps_at_demand():
    inst = Instance(("a",), {"a": 1}, ("b",), {"b": 10}, {("a", "b"): 4})
    allocation, _ = lexicographic_allocation(inst)
    assert allocation.amount == {("a", "b"): Rational(4)}


def test_allocation_uniform_burst_family():
    inst = burst_demand_instance(3)
    allocation, profile = lexicographic_allocation(inst)
    for a in inst.agents:
        assert utility(allocation, inst, a) == Rational(3)
    assert profile.lambdas == (Rational(3),)


def test_allocation_empty_instance():
    inst = Instance((), {}, ("b",), {"b": 2}, {})
    allocation, profile = lexicographic_allocation(inst)
    assert allocation.amount == {}
    assert profile.k == 0


def test_utilities_match_rates_on_random_instances(corpus):
    for inst in corpus[:80]:
        allocation, profile = lexicographic_allocation(inst)
        for a in inst.agents:
            assert utility(allocation, inst, a) == inst.endowment[a] * profile.per_agent[a]
        for (a, b), amount in allocation.amount.items():
            assert amount <= inst.demand_between(a, b)
        total = sum(
            (utility(allocation, inst, a) for a in inst.agents), ZERO
        )
        assert total == sum(capped_supply(inst).values(), ZERO)


def test_profile_invariants_on_random_instances(corpus):
    for inst in corpus[:80]:
        profile = breakpoints(inst)
        assert profile.lambdas[:1] == () or profile.lambdas[0] >= ZERO
        for i in range(1, profile.k):
            assert profile.lambdas[i - 1] < profile.lambdas[i]
            assert profile.agent_tiers[i - 1] < profile.agent_tiers[i]
            assert profile.object_tiers[i - 1] <= profile.object_tiers[i]
        assert profile.agent_tiers[-1] == frozenset(inst.agents)
        capped = capped_supply(inst)
        for i in range(profile.k):
            previous_agents = profile.agent_tiers[i - 1] if i else frozenset()
            previous_objects = profile.object_tiers[i - 1] if i else frozenset()
            previous_demand = object_totals(inst.demand, previous_agents)
            caps = {
                b: capped[b] - previous_demand.get(b, ZERO)
                for b in inst.objects
                if b not in previous_objects
            }
            assert all(c >= ZERO for c in caps.values())
            fresh = profile.new_agents(i)
            fresh_demand = object_totals(inst.demand, fresh)
            expected_new_objects = {
                b for b in caps if fresh_demand.get(b, ZERO) > caps[b]
            }
            assert profile.new_objects(i) == expected_new_objects
            for a in fresh:
                assert profile.per_agent[a] == profile.lambdas[i]


def test_multi_tier_profiles_match_the_oracle():
    # Default random instances mostly freeze in one or two tiers; staircases
    # and sparse 10x10 instances run the tier loop for 3-11 tiers.
    instances = [staircase(n) for n in range(2, 12)]
    instances += [random_instance(seed, 10, 10, 0.25) for seed in range(40)]
    tier_counts = []
    for inst in instances:
        allocation, profile = lexicographic_allocation(inst)
        expected = oracle_breakpoints(inst)
        assert profile == expected
        for a in inst.agents:
            assert utility(allocation, inst, a) == inst.endowment[a] * expected.per_agent[a]
        tier_counts.append(profile.k)
    assert sorted(tier_counts)[len(tier_counts) // 2] >= 6


def test_input_order_never_changes_utilities(corpus):
    for inst in corpus[:40]:
        base = {
            a: utility(lexicographic_allocation(inst)[0], inst, a) for a in inst.agents
        }
        flipped = Instance(
            agents=tuple(reversed(inst.agents)),
            endowment=inst.endowment,
            objects=tuple(reversed(inst.objects)),
            supply=inst.supply,
            demand=inst.demand,
        )
        allocation, _ = lexicographic_allocation(flipped)
        for a in inst.agents:
            assert utility(allocation, flipped, a) == base[a]


def test_structure_check_passes_on_mechanism_output(corpus):
    for inst in corpus[:80]:
        allocation, profile = lexicographic_allocation(inst)
        report = structure_check(inst, allocation, profile)
        assert report.passed, report.witness


def test_structure_check_flags_unserved_fast_agent():
    inst = breakpoint_example()
    _, profile = lexicographic_allocation(inst)
    starved = Allocation({("a1", "b"): Rational(1, 2), ("a2", "b"): Rational(5, 2)})
    report = structure_check(inst, starved, profile)
    assert not report.passed
    assert report.witness.subject == ("a1", "b")
    assert "served in full" in report.witness.note


def test_structure_check_flags_unconsumed_exhausted_object():
    inst = breakpoint_example()
    _, profile = lexicographic_allocation(inst)
    wasteful = Allocation({("a1", "b"): ONE, ("a2", "b"): ONE})
    report = structure_check(inst, wasteful, profile)
    assert not report.passed
    assert "not fully consumed" in report.witness.note


def test_structure_check_flags_late_agent_on_early_object():
    inst = Instance(
        ("a1", "a2"), {"a1": 1, "a2": 1}, ("b1", "b2"), {"b1": 1, "b2": 4},
        {("a1", "b1"): 2, ("a2", "b1"): 2, ("a2", "b2"): 4},
    )
    allocation, profile = lexicographic_allocation(inst)
    assert profile.object_tiers[0] == frozenset({"b1"})
    poached = Allocation(
        {("a1", "b1"): Rational(1, 2), ("a2", "b1"): Rational(1, 2), ("a2", "b2"): Rational(4)}
    )
    report = structure_check(inst, poached, profile)
    assert not report.passed
    assert "exhausted object" in report.witness.note


def test_structure_check_flags_wrong_rates():
    inst = breakpoint_example()
    allocation, profile = lexicographic_allocation(inst)
    inflated = dataclasses.replace(
        profile, lambdas=(profile.lambdas[0] + ONE, profile.lambdas[1] + ONE)
    )
    report = structure_check(inst, allocation, inflated)
    assert not report.passed
    assert report.witness.subject == ("tier 1",)


def test_absorption_identity_hand_values():
    # Tier 1 of the hand example: rate times endowment is 1, which is the
    # frozen agent's demand on the still-open object (nothing exhausted yet).
    inst = breakpoint_example()
    profile = breakpoints(inst)
    assert profile.lambdas[0] * inst.endowment["a1"] == ONE
    assert profile.object_tiers[0] == frozenset()
    assert object_totals(inst.demand, profile.agent_tiers[0]) == {"b": ONE}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_mechanism_internal_identities(seed):
    inst = random_instance(seed)
    allocation, profile = lexicographic_allocation(inst)
    assert structure_check(inst, allocation, profile).passed
    vector = utility_vector(inst, allocation)
    assert vector.sorted_normalized == tuple(sorted(profile.per_agent.values()))
