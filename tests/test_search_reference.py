"""The manipulation search against its reference: one Instance per misreport.

``reference_search`` is the search as it ran before it scaled the instance
once: it builds every coalition's report grids and counts ``space`` before
its first run, builds and validates each reported ``Instance``, and reads
utilities off the rational ``Allocation`` that ``lexicographic_allocation``
returns.  ``search_manipulation`` must return an equal ``SearchResult`` (runs,
space, truncation, skips and the counterexample) on every input.
"""

import itertools

import pytest

from conftest import staircase
from leximinflow import harness, leximin
from leximinflow.core import Instance, InternalCheckError, utilities
from leximinflow.generators import random_instance, si_bound_instance, si_misreport_instance
from leximinflow.harness import ManipulationReport, SearchResult, search_manipulation
from leximinflow.leximin import lexicographic_allocation, structure_check
from leximinflow.oracle import GridInfeasibleError, oracle_mmf_si
from leximinflow.rational import ONE, Rational, ZERO

DEFAULT_GRID = (ZERO, Rational(1, 2), ONE, Rational(2))
GRIDS = (None, (Rational(1, 3), Rational(3)), (ZERO, Rational(1, 2), Rational(2)))


def reference_values(instance, pair, grid, absolute):
    a, b = pair
    true_value = instance.demand_between(a, b)
    values = {m * true_value for m in grid}
    if absolute:
        values |= {ZERO, instance.supply[b]}
    return sorted(values)


def reference_grids(instance, coalition_size, grid, absolute):
    """Every coalition's entries, true values and report grids, and the
    space they span, built before any run."""
    searches = []
    space = 0
    for coalition in itertools.combinations(instance.agents, coalition_size):
        pairs = [(a, b) for a in coalition for b in instance.objects]
        truth = tuple(instance.demand_between(*p) for p in pairs)
        value_lists = [reference_values(instance, p, grid, absolute) for p in pairs]
        coalition_space = 1
        for values in value_lists:
            coalition_space *= len(values)
        if all(t in values for t, values in zip(truth, value_lists)):
            coalition_space -= 1
        space += coalition_space
        searches.append((coalition, pairs, truth, value_lists))
    return searches, space


def reference_run(instance, mechanism):
    if mechanism == "lmmf":
        return lexicographic_allocation(instance)
    allocation, _ = oracle_mmf_si(instance)
    return allocation, None


def reference_search(instance, coalition_size, demand_grid=None, budget=100_000, mechanism="lmmf"):
    """The search with one validated Instance and one Allocation per run.
    The truthful utilities are read through ``harness.utilities``, so that a
    test can shift them as it shifts the search's int baseline."""
    absolute = demand_grid is None
    grid = DEFAULT_GRID if absolute else tuple(Rational(m) for m in demand_grid)
    truthful_alloc, _ = reference_run(instance, mechanism)
    baseline = harness.utilities(instance, truthful_alloc)
    searches, space = reference_grids(instance, coalition_size, grid, absolute)
    runs = 0
    skipped = 0
    truncated = False
    for coalition, pairs, truth, value_lists in searches:
        for combo in itertools.product(*value_lists):
            if combo == truth:
                continue
            if runs >= budget:
                truncated = True
                break
            runs += 1
            reported_entries = dict(zip(pairs, combo))
            reported = Instance(
                agents=instance.agents,
                endowment=instance.endowment,
                objects=instance.objects,
                supply=instance.supply,
                demand={
                    **{k: v for k, v in instance.demand.items() if k[0] not in coalition},
                    **reported_entries,
                },
            )
            try:
                misreport_alloc, misreport_profile = reference_run(reported, mechanism)
            except GridInfeasibleError:
                skipped += 1
                continue
            misreport = utilities(instance, misreport_alloc)
            report = ManipulationReport(
                coalition=coalition,
                true_demands=dict(zip(pairs, truth)),
                reported_demands=reported_entries,
                truthful_utilities={a: baseline[a] for a in coalition},
                misreport_utilities={a: misreport[a] for a in coalition},
            )
            if not report.is_counterexample:
                continue
            if mechanism == "lmmf":
                verdict = structure_check(reported, misreport_alloc, misreport_profile)
                if not verdict.passed:
                    raise InternalCheckError(
                        f"misreport run violated its own structure: {verdict.witness}"
                    )
                floors = {
                    a: harness._true_utility_floor(instance, reported, misreport_profile, a)
                    for a in coalition
                }
                robust_win = any(floors[a] > baseline[a] for a in coalition)
                no_robust_loss = all(floors[a] >= baseline[a] for a in coalition)
                if not (robust_win and no_robust_loss):
                    continue
            return SearchResult(report, runs, space, truncated, skipped)
        if truncated:
            break
    return SearchResult(None, runs, space, truncated, skipped)


def search_cases(instances, budget):
    for inst in instances:
        for size in (1, 2):
            if size > len(inst.agents):
                continue
            for grid in GRIDS:
                yield inst, size, grid, budget


def test_search_matches_the_reference(corpus, monkeypatch):
    # Both searches must also solve the same flow networks: one list of edge
    # counts per search, in solve order.
    edges = []
    real = leximin.max_flow
    monkeypatch.setattr(
        leximin, "max_flow", lambda network: edges[-1].append(len(network.edges)) or real(network)
    )
    instances = corpus[::10] + [staircase(n) for n in (2, 3, 4)] + [si_bound_instance(3)]
    truncated = complete = 0
    for inst, size, grid, budget in search_cases(instances, 20):
        edges.append([])
        got = search_manipulation(inst, size, grid, budget=budget)
        edges.append([])
        want = reference_search(inst, size, grid, budget=budget)
        assert (got, edges[-2]) == (want, edges[-1]), (inst, size, grid)
        truncated += got.truncated
        complete += not got.truncated and got.runs > 0
    assert truncated and complete


def test_search_matches_the_reference_on_the_reference_rule():
    # Two-agent, two-object instances keep the rule's grid search cheap.
    # Both searches skip the misreports it cannot allocate, several find
    # its manipulations, and random_instance(18) is outside its domain.
    cases = [random_instance(s, num_agents=2, num_objects=2) for s in (2, 6, 14, 36, 44)]
    skipped = found = 0
    for inst in cases + [random_instance(18)]:
        for grid in (None, (ONE, Rational(2))):
            try:
                want = reference_search(inst, 1, grid, budget=30, mechanism="mmf-si")
            except GridInfeasibleError:
                with pytest.raises(GridInfeasibleError):
                    search_manipulation(inst, 1, grid, budget=30, mechanism="mmf-si")
                continue
            got = search_manipulation(inst, 1, grid, budget=30, mechanism="mmf-si")
            assert got == want, (inst, grid)
            skipped += got.skipped > 0
            found += got.counterexample is not None
    assert skipped and found


def test_search_matches_the_reference_on_candidates(corpus, monkeypatch):
    # No corpus instance makes the mechanism hand a coalition a gain (the
    # rule is group strategyproof), so lowering every truthful utility by
    # 1/1000 makes candidates: a run is one when no member falls below its
    # lowered utility and one exceeds it.  Both searches then check the same
    # structure and floors, and must accept and reject the same candidates.
    # The reference reads its baseline through ``harness.utilities``; the
    # search's baseline is ints u over a unit U, lowered to 1000u - U over
    # 1000U.
    real = harness.utilities
    monkeypatch.setattr(
        harness, "utilities",
        lambda instance, allocation: {
            a: u - Rational(1, 1000) for a, u in real(instance, allocation).items()
        },
    )
    real_truthful = harness._ScaledRuns.truthful

    def lowered(self):
        baseline, unit = real_truthful(self)
        return {a: 1000 * u - unit for a, u in baseline.items()}, 1000 * unit

    monkeypatch.setattr(harness._ScaledRuns, "truthful", lowered)
    checks = []
    real_check = harness.structure_check
    monkeypatch.setattr(
        harness, "structure_check", lambda *args: checks.append(1) or real_check(*args)
    )
    found = 0
    for inst, size, grid, budget in search_cases(corpus[:40], 12):
        got = search_manipulation(inst, size, grid, budget=budget)
        assert got == reference_search(inst, size, grid, budget=budget), (inst, size, grid)
        found += got.counterexample is not None
    # Some candidates were accepted and some rejected by their floors.
    assert 0 < found < len(checks)


def test_int_classification_matches_the_rational_reports(corpus, monkeypatch):
    # The search classifies each run by comparing int utilities; a run goes
    # on to the candidate checks exactly when its rational report has a
    # winner and no loser.  Lowering only the first agent's truthful utility
    # by 1/1000 gives runs in which that member gains while the other ties.
    real_truthful = harness._ScaledRuns.truthful

    def lowered(self):
        baseline, unit = real_truthful(self)
        first = self.instance.agents[0]
        return {a: 1000 * u - (unit if a == first else 0) for a, u in baseline.items()}, 1000 * unit

    got = []

    def recorded(self, coalition, pairs, truth, combo, misreport, solved):
        got.append((coalition, tuple(Rational(d, self.scale) for d in combo)))

    monkeypatch.setattr(harness._ScaledRuns, "truthful", lowered)
    monkeypatch.setattr(harness._ScaledRuns, "_candidate", recorded)
    ties = 0
    for inst, size, grid, budget in search_cases(corpus[:40], 12):
        got.clear()
        search_manipulation(inst, size, grid, budget=budget)
        absolute = grid is None
        values = DEFAULT_GRID if absolute else grid
        truthful_alloc, _ = lexicographic_allocation(inst)
        baseline = utilities(inst, truthful_alloc)
        baseline[inst.agents[0]] -= Rational(1, 1000)
        runs = itertools.islice(
            (
                (coalition, pairs, truth, combo)
                for coalition, pairs, truth, value_lists in
                reference_grids(inst, size, values, absolute)[0]
                for combo in itertools.product(*value_lists)
                if combo != truth
            ),
            budget,
        )
        want = []
        for coalition, pairs, truth, combo in runs:
            reported = Instance(
                inst.agents, inst.endowment, inst.objects, inst.supply,
                {**{k: v for k, v in inst.demand.items() if k[0] not in coalition},
                 **dict(zip(pairs, combo))},
            )
            misreport = utilities(inst, lexicographic_allocation(reported)[0])
            report = ManipulationReport(
                coalition=coalition,
                true_demands=dict(zip(pairs, truth)),
                reported_demands=dict(zip(pairs, combo)),
                truthful_utilities={a: baseline[a] for a in coalition},
                misreport_utilities={a: misreport[a] for a in coalition},
            )
            if report.is_counterexample:
                want.append((coalition, combo))
                ties += len(report.winners) < len(coalition)
        assert got == want, (inst, size, grid)
    assert ties


def eager_space(instance, coalition_size, grid):
    absolute = grid is None
    grid = DEFAULT_GRID if absolute else tuple(Rational(m) for m in grid)
    return reference_grids(instance, coalition_size, grid, absolute)[1]


def sparse_space(instance, coalition_size, grid):
    absolute = grid is None
    grid = DEFAULT_GRID if absolute else tuple(Rational(m) for m in grid)
    return harness._search_space(instance, coalition_size, grid, absolute)


def test_space_matches_the_eager_count(corpus):
    for inst in corpus[:200]:
        for size in range(1, min(3, len(inst.agents)) + 1):
            for grid in GRIDS:
                assert sparse_space(inst, size, grid) == eager_space(inst, size, grid)


def test_space_matches_the_eager_count_on_edge_grids():
    half, two = Rational(1, 2), Rational(2)
    agents = ("a1", "a2", "a3", "a4")
    objects = ("b1", "b2", "b3", "b4")
    # b1 and b3 have no supply; a4 demands nothing; a3 demands its b2's
    # whole supply, so reporting the supply is reporting the truth.
    zero_supply = Instance(
        agents, {a: 1 for a in agents}, objects,
        {"b1": 0, "b2": 3, "b3": 0, "b4": half},
        {("a1", "b1"): 1, ("a1", "b2"): 2, ("a2", "b3"): half, ("a2", "b4"): 1,
         ("a3", "b2"): 3},
    )
    grids = (
        None,
        (half, two),  # no 1: the truth is off the grid
        (ZERO,),
        (ONE, ONE, two, Rational(4, 2)),  # duplicate multipliers
        (ZERO, ONE),
        (),
    )
    instances = [zero_supply, si_misreport_instance(), si_bound_instance(3), staircase(4)]
    for inst in instances:
        for size in range(1, min(3, len(inst.agents)) + 1):
            for grid in grids:
                assert sparse_space(inst, size, grid) == eager_space(inst, size, grid), (
                    inst, size, grid
                )
