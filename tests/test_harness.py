"""Cross-instance checks: monotonicity, substructure, manipulation search."""

import itertools

import pytest

from conftest import breakpoint_example, reference_values, staircase
from leximinflow import harness, leximin
from leximinflow.core import (
    Allocation,
    Instance,
    InternalCheckError,
    InvalidInstanceError,
    sub_instance,
    utilities,
)
from leximinflow.generators import random_instance, si_bound_instance, si_misreport_instance
from leximinflow.harness import (
    AGENT_REMOVAL,
    ENDOWMENT_DECREASE,
    ManipulationReport,
    _utility_floor,
    _values,
    check_pm,
    check_rm,
    check_substructure,
    search_manipulation,
)
from leximinflow.leximin import _scaled, _split_tree, breakpoints, lexicographic_allocation
from leximinflow.oracle import oracle_breakpoints
from leximinflow.rational import ONE, Rational, ZERO


def test_rm_hand_example():
    # Doubling the shared object's supply lifts the big-demand agent from 2 to
    # 5 and leaves the small one at its full demand 1.
    inst = breakpoint_example()
    raised = Instance(
        inst.agents, inst.endowment, inst.objects, {"b": Rational(6)}, inst.demand
    )
    before, _ = lexicographic_allocation(inst)
    assert utilities(inst, before)["a1"] == ONE
    assert utilities(inst, before)["a2"] == Rational(2)
    allocation, _ = lexicographic_allocation(raised)
    assert utilities(raised, allocation)["a1"] == ONE
    assert utilities(raised, allocation)["a2"] == Rational(5)
    assert check_rm(inst, trials=4).passed


def test_rm_random_sweep(corpus):
    for seed, inst in enumerate(corpus[:40]):
        report = check_rm(inst, trials=3, seed=seed)
        assert report.passed, report.witness


def test_pm_removing_harmless_agent_changes_nothing():
    inst = Instance(
        ("a1", "a2"), {"a1": 1, "a2": 1}, ("b",), {"b": 2},
        {("a1", "b"): 2},
    )
    alone = Instance(("a1",), {"a1": 1}, ("b",), {"b": 2}, {("a1", "b"): 2})
    allocation, _ = lexicographic_allocation(inst)
    residual_allocation, _ = lexicographic_allocation(alone)
    assert (
        utilities(inst, allocation)["a1"]
        == utilities(alone, residual_allocation)["a1"]
        == Rational(2)
    )
    assert check_pm(inst, AGENT_REMOVAL, trials=3).passed


def test_pm_departure_helps_the_remaining_agent():
    inst = si_bound_instance(2)
    residual = Instance(
        ("a1",), {"a1": ONE}, inst.objects, inst.supply,
        {k: v for k, v in inst.demand.items() if k[0] == "a1"},
    )
    before, _ = lexicographic_allocation(inst)
    assert utilities(inst, before)["a1"] == Rational(3, 2)
    allocation, _ = lexicographic_allocation(residual)
    assert utilities(residual, allocation)["a1"] == Rational(2)
    assert check_pm(inst, AGENT_REMOVAL, trials=3).passed


def test_pm_requires_matching_spec_kind():
    for kind in ("supply-increase", "supply-decrease"):
        with pytest.raises(ValueError):
            check_pm(breakpoint_example(), kind, trials=1)


def test_pm_random_sweep(corpus):
    for seed, inst in enumerate(corpus[:40]):
        for kind in (ENDOWMENT_DECREASE, AGENT_REMOVAL):
            report = check_pm(inst, kind, trials=3, seed=seed)
            assert report.passed, report.witness


def test_monotonicity_reads_utilities_off_the_profile(corpus, monkeypatch):
    # check_rm and check_pm take each utility as endowment x rate from the
    # breakpoint profile, with no final flow.  Every utility they read, and
    # so every report, equals the one the final flow's allocation gives.
    finals = []
    real_final = leximin._final_flow
    monkeypatch.setattr(
        leximin, "_final_flow", lambda *args: finals.append(1) or real_final(*args)
    )
    solved = []
    real_utilities = harness._mechanism_utilities

    def recorded(inst):
        solved.append((inst, real_utilities(inst)))
        return solved[-1][1]

    def flow_utilities(inst):
        allocation, _ = lexicographic_allocation(inst)
        return utilities(inst, allocation)

    def reports():
        return [
            (check_rm(inst, trials=10, seed=seed),
             check_pm(inst, ENDOWMENT_DECREASE, trials=5, seed=seed),
             check_pm(inst, AGENT_REMOVAL, trials=5, seed=seed))
            for seed, inst in enumerate(corpus[:40])
        ]

    monkeypatch.setattr(harness, "_mechanism_utilities", recorded)
    got = reports()
    # Each check solves the instance once and then each perturbation.
    assert finals == [] and len(solved) == 40 * (11 + 6 + 6)
    monkeypatch.setattr(harness, "_mechanism_utilities", flow_utilities)
    assert reports() == got
    for inst, profile_utilities in solved:
        assert profile_utilities == flow_utilities(inst)


def test_substructure_hand_example():
    inst = breakpoint_example()
    allocation, _ = lexicographic_allocation(inst)
    residual = sub_instance(inst, allocation, ["a1"])
    expected = oracle_breakpoints(residual)
    expected_u = residual.endowment["a2"] * expected.per_agent["a2"]
    assert utilities(residual, allocation)["a2"] == expected_u
    assert check_substructure(inst, allocation, trials=8, seed=1).passed


def test_substructure_random_sweep(corpus):
    for seed, inst in enumerate(corpus[:40]):
        allocation, _ = lexicographic_allocation(inst)
        report = check_substructure(inst, allocation, trials=3, seed=seed)
        assert report.passed, report.witness


def test_substructure_checks_the_given_allocation():
    inst = breakpoint_example()
    report = check_substructure(inst, Allocation({}), trials=8, seed=1)
    assert not report.passed
    over = Allocation({("a1", "b"): Rational(4)})
    report = check_substructure(inst, over, trials=8, seed=1)
    assert not report.passed and report.witness.subject == ("b",)


def test_substructure_counts_only_checked_subsets():
    # A single agent: two of the five seed-0 draws remove it, leave no
    # residual agent and check nothing.
    inst = random_instance(2)
    assert inst.agents == ("a1",)
    allocation, _ = lexicographic_allocation(inst)
    report = check_substructure(inst, allocation, trials=5, seed=0)
    assert report.passed and report.detail == "3 subsets"


def test_substructure_size_limit():
    agents = tuple(f"a{i}" for i in range(13))
    inst = Instance(agents, {a: 1 for a in agents}, ("b",), {"b": 1}, {})
    with pytest.raises(ValueError):
        check_substructure(inst, Allocation({}), trials=1)


def test_manipulation_report_classification():
    report = ManipulationReport(
        coalition=("a", "b", "c"),
        true_demands={},
        reported_demands={},
        truthful_utilities={"a": ONE, "b": ONE, "c": ONE},
        misreport_utilities={"a": Rational(2), "b": ONE, "c": ONE},
    )
    assert report.winners == ("a",)
    assert report.losers == ()
    assert report.is_counterexample

    mixed = ManipulationReport(
        coalition=("a", "b"),
        true_demands={},
        reported_demands={},
        truthful_utilities={"a": ONE, "b": ONE},
        misreport_utilities={"a": Rational(2), "b": ZERO},
    )
    assert mixed.winners == ("a",) and mixed.losers == ("b",)
    assert not mixed.is_counterexample


def test_search_identity_grid_is_empty():
    result = search_manipulation(si_misreport_instance(), coalition_size=1, demand_grid=(ONE,))
    assert result.counterexample is None
    assert result.runs == 0
    assert result.space == 0
    assert not result.truncated


def test_search_argument_errors():
    inst = si_misreport_instance()
    with pytest.raises(ValueError):
        search_manipulation(inst, coalition_size=4)
    with pytest.raises(ValueError):
        search_manipulation(inst, coalition_size=0)
    with pytest.raises(ValueError):
        search_manipulation(inst, coalition_size=1, budget=0)
    with pytest.raises(ValueError):
        search_manipulation(inst, coalition_size=1, demand_grid=(Rational(-1),))


def test_search_rejects_an_invalid_instance_before_any_run(monkeypatch):
    inst = si_misreport_instance()
    a, b = next(iter(inst.demand))
    invalid = Instance(inst.agents, inst.endowment, inst.objects, inst.supply,
                       {**inst.demand, (a, b): Rational(-1)})
    solves = []
    monkeypatch.setattr(harness, "_split_tree", lambda *args: solves.append(args))
    with pytest.raises(InvalidInstanceError, match="demand must be nonnegative"):
        search_manipulation(invalid, coalition_size=1)
    assert solves == []


def test_search_truthful_value_error_is_an_internal_error(monkeypatch):
    # The truthful run's split tree takes the search's first flow; a
    # ValueError there is a solver bug on a validated instance.
    calls = []

    def broken(network):
        calls.append(1)
        raise ValueError("flow on a broken network (injected)")

    monkeypatch.setattr(leximin, "max_flow", broken)
    with pytest.raises(InternalCheckError, match="solver raised ValueError on valid input"
                       ": flow on a broken network"):
        search_manipulation(si_misreport_instance(), coalition_size=1)
    assert calls == [1]


def test_search_raises_when_the_floors_admit_no_counterexample(monkeypatch):
    # The mechanism's utilities are at least the tier floors, so a floor
    # that overstates them admits a run whose report is no counterexample:
    # that is a floor bug, not "no counterexample".
    real = harness._utility_floor
    monkeypatch.setattr(harness, "_utility_floor", lambda *args: real(*args) + 10**9)
    with pytest.raises(InternalCheckError, match="tier floors admitted a misreport"):
        search_manipulation(si_misreport_instance(), coalition_size=1)


def int_floor(true, reported, agent):
    """``_utility_floor`` of the agent on the reported instance's int view,
    over the instance's units, with its true demands at the same scale."""
    view = _scaled(reported)
    tiers, unit = _split_tree(
        reported.agents, view.capped(view.totals), view.demand, view.totals, view.endowment
    )
    entries = [
        (b, view.demand.get((agent, b), 0), int(true.demand_between(agent, b) * view.scale))
        for b in reported.objects
    ]
    floor = _utility_floor(tiers, unit, view.endowment[agent], agent, entries)
    return Rational(floor, view.scale * unit)


def test_truthful_utility_floor_is_the_frozen_utility(corpus):
    # Reporting the truth leaves no valueless headroom, so the floor is the
    # agent's whole frozen utility.
    for inst in corpus + [staircase(n) for n in range(2, 12)]:
        profile = breakpoints(inst)
        for a in inst.agents:
            assert int_floor(inst, inst, a) == inst.endowment[a] * profile.per_agent[a]


def test_utility_floor_skips_objects_exhausted_by_earlier_tiers():
    # Reported: a1 freezes alone at rate 1 and exhausts b1; a2 freezes at rate
    # 5 and exhausts b2.  a2 reports a demand of 1 on b1, which a2 can never
    # get, and of 6 on b2, 3 more than it values.  Only b3 is served in full
    # (1 unit, all valued), and the rest of a2's budget of 5, 4 units, goes to
    # b2, where 3 units may be valueless: the floor is 1 + 1.
    objects, supply = ("b1", "b2", "b3"), {"b1": 1, "b2": 4, "b3": 10}
    endowment = {"a1": 1, "a2": 1}
    true = Instance(
        ("a1", "a2"), endowment, objects, supply,
        {("a1", "b1"): 2, ("a2", "b2"): 3, ("a2", "b3"): 2},
    )
    reported = Instance(
        ("a1", "a2"), endowment, objects, supply,
        {("a1", "b1"): 2, ("a2", "b1"): 1, ("a2", "b2"): 6, ("a2", "b3"): 1},
    )
    profile = breakpoints(reported)
    assert profile.lambdas == (ONE, Rational(5))
    assert profile.object_tiers == (frozenset({"b1"}), frozenset({"b2"}))
    assert int_floor(true, reported, "a2") == Rational(2)


def test_int_report_grids_match_the_rational_grids(corpus):
    # Every coalition's int report grid and identity, in the view's units X,
    # are the rational grid of ``reference_values`` and the true demands
    # times X, entry by entry: on the corpus, and on grids that drop 1,
    # repeat a multiplier or are empty, over zero supplies and an agent
    # without demands.
    half, two = Rational(1, 2), Rational(2)
    agents, objects = ("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4")
    zero_supply = Instance(
        agents, {a: 1 for a in agents}, objects,
        {"b1": 0, "b2": 3, "b3": 0, "b4": half},
        {("a1", "b1"): 1, ("a1", "b2"): 2, ("a2", "b3"): half, ("a2", "b4"): 1,
         ("a3", "b2"): 3},
    )
    cases = [
        (inst, grid)
        for inst in corpus[:200]
        for grid in (None, (Rational(1, 3), Rational(3)), (ZERO, half, two))
    ]
    cases += [
        (inst, grid)
        for inst in (zero_supply, si_misreport_instance(), si_bound_instance(3), staircase(4))
        for grid in (None, (half, two), (ZERO,), (ONE, ONE, two, Rational(4, 2)), (ZERO, ONE), ())
    ]
    entries = 0
    for inst, grid in cases:
        absolute = grid is None
        values = (ZERO, half, ONE, two) if absolute else tuple(Rational(m) for m in grid)
        view = _scaled(inst, values)
        ratios = {(int(m.numerator), int(m.denominator)) for m in values}
        x = view.scale
        want = {}  # per entry: its true value and its rational grid, times X
        for p in itertools.product(inst.agents, inst.objects):
            want[p] = (
                inst.demand_between(*p) * x,
                [v * x for v in reference_values(inst, p, values, absolute)],
            )
        for size in range(1, min(3, len(inst.agents)) + 1):
            for coalition in itertools.combinations(inst.agents, size):
                pairs = [(a, b) for a in coalition for b in inst.objects]
                identity = tuple(view.demand.get(p, 0) for p in pairs)
                value_lists = [
                    _values(t, view.supply[b], ratios, absolute)
                    for t, (_, b) in zip(identity, pairs)
                ]
                assert identity == tuple(want[p][0] for p in pairs)
                assert value_lists == [want[p][1] for p in pairs]
                assert {type(v) for v in (*identity, *itertools.chain(*value_lists))} <= {int}
                entries += len(pairs)
    assert entries > 10_000


def test_main_mechanism_resists_the_inflation_play():
    # Inflating d(a1, b2) to 2 fools a maximin rule that must meet full
    # entitlements, but not the mechanism under test.
    result = search_manipulation(
        si_misreport_instance(), coalition_size=1, demand_grid=(ONE, Rational(2))
    )
    assert result.counterexample is None
    assert not result.truncated
    assert result.runs == result.space > 0


def test_full_entitlement_maximin_is_manipulable():
    result = search_manipulation(
        si_misreport_instance(),
        coalition_size=1,
        demand_grid=(ONE, Rational(2)),
        mechanism="mmf-si",
    )
    ce = result.counterexample
    assert ce is not None
    assert ce.coalition == ("a1",)
    assert ce.winners == ("a1",)
    assert ce.losers == ()
    assert ce.truthful_utilities["a1"] == Rational(3)
    assert ce.misreport_utilities["a1"] == Rational(4)
    assert ce.reported_demands[("a1", "b2")] == Rational(2)
    assert ce.true_demands[("a1", "b2")] == ONE


def test_search_budget_truncation():
    result = search_manipulation(si_misreport_instance(), coalition_size=1, budget=1)
    assert result.counterexample is None
    assert result.truncated
    assert result.runs == 1
    assert result.space > 1


def test_search_default_grid_random_sweep(corpus):
    for inst in corpus[:15]:
        for size in (1, 2):
            if size > len(inst.agents):
                continue
            result = search_manipulation(inst, coalition_size=size, budget=60)
            assert result.counterexample is None
            assert result.runs <= 60


def test_reference_rule_rejects_a_large_instance_before_counting_the_space(monkeypatch):
    # C(200, 2) coalitions are never counted: the oracle refuses the
    # truthful instance first.
    def counted(*args):
        raise AssertionError("the search space was counted")

    monkeypatch.setattr(harness, "_search_space", counted)
    inst = random_instance(0, num_agents=200, num_objects=2)
    with pytest.raises(ValueError, match="at most 3 agents"):
        search_manipulation(inst, coalition_size=2, mechanism="mmf-si")


def test_unknown_mechanism_rejected():
    with pytest.raises(ValueError):
        search_manipulation(si_misreport_instance(), coalition_size=1, mechanism="greedy")
