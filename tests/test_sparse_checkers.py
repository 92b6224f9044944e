"""Differential test: the sparse checkers against the dense formulas they replaced.

The references below scan every agent × object pair, exactly as the checkers
did before they were rewritten to loop over demand and allocation entries.
On the corpus they are compared on mechanism allocations, random frugal
allocations and injected faults: the reports must be equal, witnesses
included; for the structure certificate the verdict and the violated check
must agree (with several violations in one tier and check, the dense
version's witness depended on set iteration order).
"""

import dataclasses
import itertools
import random

from conftest import double_envy_example
from leximinflow.core import Allocation, Instance, UtilityVector, capped_supply, utility_vector
from leximinflow.leximin import lexicographic_allocation, structure_check
from leximinflow.oracle import random_frugal_allocation
from leximinflow.properties import SiReport, envy_report, is_frugal, is_nw, si_ratio
from leximinflow.rational import ONE, Rational, ZERO
from leximinflow.reporting import failing, passing


def group_demand(instance, agents, obj):
    return sum((instance.demand_between(a, obj) for a in agents), ZERO)


def dense_capped_supply(instance):
    return {
        b: min(instance.supply[b], group_demand(instance, instance.agents, b))
        for b in instance.objects
    }


def dense_utility(instance, allocation, agent):
    total = ZERO
    for b in instance.objects:
        total += min(allocation.amount_of(agent, b), instance.demand_between(agent, b))
    return total


def dense_utility_vector(instance, allocation):
    entries = []
    for a in instance.agents:
        u = dense_utility(instance, allocation, a)
        entries.append((a, u, u / instance.endowment[a]))
    return UtilityVector(tuple(entries))


def dense_is_frugal(instance, allocation):
    for a, b in sorted((a, b) for a in instance.agents for b in instance.objects):
        amount, d = allocation.amount_of(a, b), instance.demand_between(a, b)
        if amount > d:
            return failing("frugal", (a, b), amount, d, note="amount exceeds demand")
    return passing("frugal")


def dense_is_nw(instance, allocation):
    """Defined on frugal allocations only (the dense version raised otherwise)."""
    for b in instance.objects:
        total = ZERO
        for a in instance.agents:
            total += allocation.amount_of(a, b)
        if total == instance.supply[b]:
            continue
        for a in instance.agents:
            d = instance.demand_between(a, b)
            got = allocation.amount_of(a, b)
            if got != d:
                return failing(
                    "non-wasteful", (a, b), got, d,
                    note="object not exhausted yet demand unmet",
                )
    return passing("non-wasteful")


def dense_envy_report(instance, allocation):
    for a in instance.agents:
        own = dense_utility(instance, allocation, a)
        for other in instance.agents:
            if other == a:
                continue
            scale = instance.endowment[a] / instance.endowment[other]
            envied = ZERO
            for b in instance.objects:
                envied += min(
                    scale * allocation.amount_of(other, b), instance.demand_between(a, b)
                )
            if own < envied:
                return failing(
                    "envy-free", (a, other), own, envied,
                    note="agent prefers the other's scaled bundle",
                )
    return passing("envy-free")


def dense_si_ratio(instance, allocation):
    total_e = sum((instance.endowment[a] for a in instance.agents), ZERO)
    rows = []
    worst = None
    worst_row = None
    for a in instance.agents:
        share = instance.endowment[a] / total_e
        entitlement = ZERO
        for b in instance.objects:
            entitlement += min(share * instance.supply[b], instance.demand_between(a, b))
        u = dense_utility(instance, allocation, a)
        rows.append((a, u, entitlement))
        if entitlement > ZERO:
            ratio = u / entitlement
            if worst is None or ratio < worst:
                worst = ratio
                worst_row = (a, u, entitlement)
    return SiReport(ratio=worst, table=tuple(rows), worst=worst_row)


def dense_structure_check(instance, allocation, profile):
    name = "structure"
    capped = dense_capped_supply(instance)
    all_objects = set(instance.objects)
    for i in range(profile.k):
        cum_agents = frozenset().union(*profile.agent_tiers[: i + 1])
        cum_objects = frozenset().union(*profile.object_tiers[: i + 1])
        for a in profile.agent_tiers[i]:
            for b in all_objects - cum_objects:
                mu = allocation.amount_of(a, b)
                d = instance.demand_between(a, b)
                if mu != d:
                    return failing(
                        name, (a, b), mu, d,
                        note="unexhausted object must be served in full",
                    )
        for b in profile.object_tiers[i]:
            for a in instance.agents:
                if a not in cum_agents:
                    mu = allocation.amount_of(a, b)
                    if mu != ZERO:
                        return failing(
                            name, (a, b), mu, ZERO,
                            note="later agent served from an exhausted object",
                        )
        for b in cum_objects:
            got = ZERO
            for a in cum_agents:
                got += allocation.amount_of(a, b)
            if got != capped[b]:
                return failing(
                    name, (b,), got, capped[b],
                    note="exhausted object not fully consumed by its tiers",
                )
        lhs = ZERO
        for j in range(i + 1):
            tier_e = ZERO
            for a in profile.agent_tiers[j]:
                tier_e += instance.endowment[a]
            lhs += tier_e * profile.lambdas[j]
        rhs = ZERO
        for b in cum_objects:
            rhs += instance.supply[b]
        for b in all_objects - cum_objects:
            rhs += group_demand(instance, cum_agents, b)
        if lhs != rhs:
            return failing(
                name, (f"tier {i + 1}",), lhs, rhs,
                note="absorption total != exhausted supply + outside demand",
            )
    return passing(name)


def faults(instance, allocation, rng):
    """Broken variants of a mechanism allocation, each named by its fault."""
    entries = sorted(allocation.amount.items())
    pairs = sorted(instance.demand)
    out = {}
    if pairs:
        key = rng.choice(pairs)
        out["over-demand"] = Allocation(
            {**allocation.amount, key: instance.demand[key] + 100}
        )
    if entries:
        (a, b), x = rng.choice(entries)
        starved = dict(allocation.amount)
        del starved[(a, b)]
        out["dropped"] = Allocation(starved)
        out["halved"] = Allocation({**allocation.amount, (a, b): x / 2})
        other = rng.choice(instance.agents)
        moved = dict(allocation.amount)
        moved[(a, b)] = x / 2
        moved[(other, b)] = moved.get((other, b), ZERO) + x / 2
        out["moved"] = Allocation(moved)
    out["empty"] = Allocation({})
    return out


def test_sparse_checkers_match_the_dense_formulas(corpus):
    rng = random.Random(2021)
    failures = {"frugal": 0, "nw on frugal": 0, "envy": 0, "structure": 0}
    notes = {}
    for seed, inst in enumerate(corpus):
        assert capped_supply(inst) == dense_capped_supply(inst)
        mechanism, profile = lexicographic_allocation(inst)
        allocations = {"mechanism": mechanism}
        for k in range(2):
            allocations[f"sample {k}"] = random_frugal_allocation(inst, seed * 7 + k)
        allocations.update(faults(inst, mechanism, rng))
        for label, allocation in allocations.items():
            context = (seed, label)
            assert utility_vector(inst, allocation) == dense_utility_vector(inst, allocation), context
            assert si_ratio(inst, allocation) == dense_si_ratio(inst, allocation), context
            envy = envy_report(inst, allocation)
            assert envy == dense_envy_report(inst, allocation), context
            failures["envy"] += not envy.passed
            frugal = is_frugal(inst, allocation)
            assert frugal == dense_is_frugal(inst, allocation), context
            nw = is_nw(inst, allocation)
            if frugal.passed:
                assert nw == dense_is_nw(inst, allocation), context
                failures["nw on frugal"] += not nw.passed
            else:
                failures["frugal"] += 1
                w = frugal.witness
                assert nw == failing(
                    "non-wasteful", w.subject, w.lhs, w.rhs,
                    note="defined on frugal allocations only",
                ), context
            profiles = [profile]
            if profile.k:
                raised = profile.lambdas[:-1] + (profile.lambdas[-1] + ONE,)
                profiles.append(dataclasses.replace(profile, lambdas=raised))
            for p in profiles:
                got = structure_check(inst, allocation, p)
                want = dense_structure_check(inst, allocation, p)
                assert got.passed == want.passed, context
                if not want.passed:
                    failures["structure"] += 1
                    notes[want.witness.note] = notes.get(want.witness.note, 0) + 1
                    assert got.witness.note == want.witness.note, context
                    if got.witness.subject[0].startswith("tier "):
                        assert got.witness == want.witness, context
    # The sweep must reach the failing side of every checker it compares.
    assert min(failures.values()) > 100, failures
    assert len(notes) == 4 and min(notes.values()) > 10, notes


def test_structure_witness_is_first_in_instance_order():
    # Two agents of one tier each miss their demand on an unexhausted object:
    # the witness names the first agent in instance order.
    inst = Instance(
        ("y", "x"), {"x": 1, "y": 1}, ("b",), {"b": 10},
        {("x", "b"): 1, ("y", "b"): 1},
    )
    _, profile = lexicographic_allocation(inst)
    report = structure_check(inst, Allocation({}), profile)
    assert not report.passed
    assert report.witness.subject == ("y", "b")
    assert report.witness.lhs == ZERO and report.witness.rhs == Rational(1)


def test_envy_witness_matches_the_dense_formula_in_every_order():
    # One envier envies two agents; every order of agents, objects and
    # allocation entries must give the dense formula's witness.
    inst, allocation = double_envy_example()
    witnesses = set()
    for agents, objects, entries in itertools.product(
        itertools.permutations(inst.agents),
        itertools.permutations(inst.objects),
        itertools.permutations(allocation.amount.items()),
    ):
        reordered = dataclasses.replace(inst, agents=agents, objects=objects)
        shuffled = Allocation(dict(entries))
        report = envy_report(reordered, shuffled)
        assert report == dense_envy_report(reordered, shuffled), (agents, objects, entries)
        witnesses.add(report.witness.subject)
    assert witnesses == {("a1", "a2"), ("a1", "a3")}
