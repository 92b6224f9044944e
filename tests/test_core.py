"""Instance model: validation, derived quantities, utilities, sub-instances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import breakpoint_example, capacity
from leximinflow.core import (
    Allocation,
    Instance,
    capped_supply,
    object_totals,
    sub_instance,
    utilities,
    utility_vector,
    validate_instance,
)
from leximinflow.generators import (
    burst_demand_instance,
    random_instance,
    si_bound_instance,
    si_misreport_instance,
)
from leximinflow.leximin import lexicographic_allocation
from leximinflow.rational import Rational, ZERO, format_rational, parse_rational


def test_valid_instance_has_empty_report():
    assert validate_instance(breakpoint_example()) == []


def test_zero_endowment_is_flagged():
    inst = Instance(("a",), {"a": 0}, ("b",), {"b": 1}, {})
    report = validate_instance(inst)
    assert any("strictly positive" in line for line in report)


def test_duplicate_ids_are_flagged():
    inst = Instance(("a", "a"), {"a": 1}, ("b", "b"), {"b": 1}, {})
    report = validate_instance(inst)
    assert any("duplicate agent" in line for line in report)
    assert any("duplicate object" in line for line in report)


def test_negative_quantities_and_missing_entries_are_flagged():
    inst = Instance(("a",), {}, ("b",), {"b": -1}, {("a", "b"): -2, ("x", "b"): 1})
    report = validate_instance(inst)
    assert any("no endowment" in line for line in report)
    assert any("supply must be nonnegative" in line for line in report)
    assert any("demand must be nonnegative" in line for line in report)
    assert any("unknown agent" in line for line in report)


def test_capped_supply_examples():
    two = si_bound_instance(2)
    assert capped_supply(two) == {"b1": Rational(2), "b2": Rational(1)}
    no_demand = Instance(("a",), {"a": 1}, ("b",), {"b": 7}, {})
    assert capped_supply(no_demand) == {"b": ZERO}
    six = si_misreport_instance()
    assert capped_supply(six) == {"b1": Rational(3), "b2": Rational(6)}


def test_capacity_examples():
    six = si_misreport_instance()
    assert capacity(six, []) == ZERO
    assert capacity(six, ["a2"]) == Rational(3)
    capped = capped_supply(six)
    assert capacity(six, six.agents) == sum(capped.values(), ZERO)
    with pytest.raises(ValueError):
        capacity(six, ["nobody"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5000))
def test_capacity_is_monotone_in_the_subset(seed):
    inst = random_instance(seed, num_agents=4)
    agents = list(inst.agents)
    for mask in range(1 << len(agents)):
        subset = [a for i, a in enumerate(agents) if mask >> i & 1]
        value = capacity(inst, subset)
        for extra in agents:
            if extra not in subset:
                assert value <= capacity(inst, subset + [extra])


def test_utility_examples():
    inst = si_bound_instance(2)
    assert utilities(inst, Allocation({}))["a1"] == ZERO
    flooded = Allocation({("a1", "b1"): 10, ("a1", "b2"): 10})
    assert utilities(inst, flooded)["a1"] == Rational(2)  # capped at total demand
    mech = Allocation({("a1", "b1"): Rational(1, 2), ("a1", "b2"): 1})
    assert utilities(inst, mech)["a1"] == Rational(3, 2)
    with pytest.raises(KeyError):
        utilities(inst, Allocation({}))["nobody"]


def test_utility_vector_sorts_normalized_values():
    one = Instance(("a",), {"a": 1}, ("b",), {"b": 5}, {("a", "b"): 3})
    vector = utility_vector(one, Allocation({("a", "b"): 3}))
    assert vector.sorted_normalized == (Rational(3),)

    two = Instance(
        ("a", "b"), {"a": 1, "b": 1}, ("o",), {"o": 3},
        {("a", "o"): 2, ("b", "o"): 1},
    )
    vector = utility_vector(two, Allocation({("a", "o"): 2, ("b", "o"): 1}))
    assert vector.sorted_normalized == (Rational(1), Rational(2))
    assert vector.entries == (
        ("a", Rational(2), Rational(2)),
        ("b", Rational(1), Rational(1)),
    )
    assert len(vector) == 2


def test_burst_instance_gives_everyone_the_same_utility():
    inst = burst_demand_instance(3)
    allocation, _ = lexicographic_allocation(inst)
    vector = utility_vector(inst, allocation)
    assert vector.sorted_normalized == (Rational(3),) * 3


def test_sub_instance_identity_and_full_removal():
    inst = breakpoint_example()
    same = sub_instance(inst, Allocation({}), [])
    assert same.agents == inst.agents
    assert same.endowment == inst.endowment
    assert same.supply == inst.supply
    assert same.demand == inst.demand

    allocation = Allocation({("a1", "b"): 1, ("a2", "b"): 2})
    none_left = sub_instance(inst, allocation, inst.agents)
    assert none_left.agents == ()
    assert none_left.supply == {"b": ZERO}
    assert none_left.demand == {}


def test_sub_instance_reduces_supply_by_removed_share():
    inst = breakpoint_example()
    residual = sub_instance(inst, Allocation({("a1", "b"): 1}), ["a1"])
    assert residual.agents == ("a2",)
    assert residual.supply == {"b": Rational(2)}
    assert residual.demand == {("a2", "b"): Rational(5)}


def test_sub_instance_rejects_infeasible_allocation():
    inst = breakpoint_example()
    with pytest.raises(ValueError):
        sub_instance(inst, Allocation({("a1", "b"): 4}), ["a1"])
    with pytest.raises(ValueError):
        sub_instance(inst, Allocation({}), ["nobody"])


def test_allocation_drops_zeros_and_rejects_negatives():
    allocation = Allocation({("a", "b"): 0, ("a", "c"): Rational(1, 2)})
    assert ("a", "b") not in allocation.amount
    assert allocation.amount_of("a", "b") == ZERO
    assert allocation.amount == {("a", "c"): Rational(1, 2)}
    with pytest.raises(ValueError):
        Allocation({("a", "b"): -1})


def test_instance_drops_zero_demand_entries():
    inst = Instance(("a",), {"a": 1}, ("b", "c"), {"b": 1, "c": 1}, {("a", "b"): 0, ("a", "c"): 2})
    assert ("a", "b") not in inst.demand
    assert inst.demand_between("a", "b") == ZERO
    assert inst.demand == {("a", "c"): Rational(2)}
    assert object_totals(inst.demand) == {"c": Rational(2)}
    assert object_totals(inst.demand, {"z"}) == {}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5000), k=st.integers(0, 10))
def test_computed_quantities_survive_text_round_trips(seed, k):
    inst = random_instance(seed)
    values = [capacity(inst, inst.agents)]
    values += [inst.endowment[a] for a in inst.agents]
    values += list(capped_supply(inst).values())
    total = sum(values, ZERO) + Rational(k, 7)
    for value in values + [total]:
        assert parse_rational(format_rational(value)) == value
