"""Cross-instance checks: monotonicity, substructure, manipulation search."""

import pytest

from conftest import breakpoint_example
from leximinflow.core import Allocation, Instance, sub_instance, utilities
from leximinflow.generators import random_instance, si_bound_instance, si_misreport_instance
from leximinflow.harness import (
    AGENT_REMOVAL,
    ENDOWMENT_DECREASE,
    ManipulationReport,
    check_pm,
    check_rm,
    check_substructure,
    search_manipulation,
)
from leximinflow.leximin import lexicographic_allocation
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


def test_unknown_mechanism_rejected():
    with pytest.raises(ValueError):
        search_manipulation(si_misreport_instance(), coalition_size=1, mechanism="greedy")
