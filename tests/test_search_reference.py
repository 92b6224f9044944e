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

from conftest import lower_search_baseline, reference_values, staircase
from leximinflow import cli, harness, leximin
from leximinflow.core import Instance, InternalCheckError, utilities
from leximinflow.fileio import load_instance
from leximinflow.generators import random_instance, si_bound_instance, si_misreport_instance
from leximinflow.harness import ManipulationReport, SearchResult, search_manipulation
from leximinflow.leximin import breakpoints, lexicographic_allocation, structure_check
from leximinflow.oracle import GridInfeasibleError, oracle_mmf_si
from leximinflow.rational import ONE, Rational, ZERO

DEFAULT_GRID = (ZERO, Rational(1, 2), ONE, Rational(2))
GRIDS = (None, (Rational(1, 3), Rational(3)), (ZERO, Rational(1, 2), Rational(2)))


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


def reference_floor(instance, reported, profile, agent):
    """Lower bound on the agent's true utility over every allocation the
    mechanism could return for the reported instance, in rationals.

    The tier structure forces full service on objects never exhausted by the
    agent's tier and forbids service from earlier tiers' objects; only the
    split across the agent's own tier objects is free, and its total is fixed
    by the agent's frozen rate.  The worst split fills valueless headroom
    first.
    """
    i = profile.tier_of(agent)
    exhausted = frozenset().union(*profile.object_tiers[: i + 1])
    outside = [b for b in reported.objects if b not in exhausted]
    floor = ZERO
    budget = reported.endowment[agent] * profile.per_agent[agent]
    for b in outside:
        d_rep = reported.demand_between(agent, b)
        floor += min(d_rep, instance.demand_between(agent, b))
        budget -= d_rep
    headroom = ZERO
    for b in profile.object_tiers[i]:
        d_rep = reported.demand_between(agent, b)
        headroom += d_rep - min(d_rep, instance.demand_between(agent, b))
    if budget > headroom:
        floor += budget - headroom
    return floor


def full_tree_floor(tiers, unit, endowment, agent, entries):
    """The agent's floor (``harness._utility_floor``) read off the whole
    split tree of a run's view, as an int over the view's unit D x L for the
    tiers' rate unit L (``leximin._split_tree``): the slower tiers' exhausted
    objects come from the sorted tiers that precede the agent's.  ``entries``
    holds the agent's (object, reported int demand, true int demand)."""
    earlier = set()
    for rate, tier, exhausted in tiers:
        if agent in tier:
            break
        earlier |= exhausted
    served = headroom = 0
    budget = endowment * rate
    for b, reported, true in entries:
        kept = min(reported, true)
        if b in exhausted:
            headroom += reported - kept
        elif b not in earlier:
            served += kept
            budget -= reported * unit
    return served * unit + max(0, budget - headroom * unit)


def member_nodes(view, tiers, members):
    """The multi-agent nodes of a view's whole split tree that hold one of
    ``members``, derived from its sorted ``tiers`` (``leximin._split_tree``)
    alone.  A node is a run of consecutive tiers: its tiers absorb exactly
    its capacity, so its rate is their endowment-weighted mean rate, and its
    restriction is its tiers at or below that rate."""
    members = frozenset(members)
    weights = [sum(view.endowment[a] for a in tier) for _, tier, _ in tiers]
    count = 0
    work = [(0, len(tiers))] if tiers else []
    while work:
        i, j = work.pop()
        agents = frozenset().union(*(tier for _, tier, _ in tiers[i:j]))
        if members.isdisjoint(agents):
            continue
        count += len(agents) > 1
        if j - i > 1:
            weight = sum(weights[i:j])
            absorbed = sum(w * rate for w, (rate, _, _) in zip(weights[i:j], tiers[i:j]))
            k = i
            while tiers[k][0] * weight <= absorbed:
                k += 1
            assert i < k < j
            work += [(i, k), (k, j)]
    return count


def reference_runs(instance, coalition_size, grid, runs):
    """(coalition, entries, reported values) of the search's first ``runs``
    runs, in search order."""
    absolute = grid is None
    values = DEFAULT_GRID if absolute else tuple(Rational(m) for m in grid)
    return list(itertools.islice(
        (
            (coalition, pairs, combo)
            for coalition, pairs, truth, value_lists in
            reference_grids(instance, coalition_size, values, absolute)[0]
            for combo in itertools.product(*value_lists)
            if combo != truth
        ),
        runs,
    ))


def reference_run(instance, mechanism):
    if mechanism == "lmmf":
        return lexicographic_allocation(instance)
    allocation, _ = oracle_mmf_si(instance)
    return allocation, None


def reference_search(
    instance, coalition_size, demand_grid=None, budget=100_000, mechanism="lmmf",
    lowered=ZERO, rejected=None,
):
    """The search with one validated Instance and one Allocation per run.
    Every truthful utility is lowered by ``lowered``, so that a test can
    shift them as it shifts the search's int baseline.  An lmmf run whose
    allocation makes a counterexample but whose floors do not is appended to
    ``rejected``, when given."""
    absolute = demand_grid is None
    grid = DEFAULT_GRID if absolute else tuple(Rational(m) for m in demand_grid)
    truthful_alloc, _ = reference_run(instance, mechanism)
    baseline = {a: u - lowered for a, u in utilities(instance, truthful_alloc).items()}
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
                    a: reference_floor(instance, reported, misreport_profile, a)
                    for a in coalition
                }
                robust_win = any(floors[a] > baseline[a] for a in coalition)
                no_robust_loss = all(floors[a] >= baseline[a] for a in coalition)
                if not (robust_win and no_robust_loss):
                    if rejected is not None:
                        rejected.append((coalition, combo))
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
    # Both searches must also solve the same networks, listed per search in
    # solve order as (agents, edge count): a split flow's agents are its
    # node's, and the final flow's are None.  The reference solves its
    # truthful instance and each run's reported instance whole, each ending
    # in a final flow.  The search takes the reference's truthful split
    # flows, then for each run the split flows of the nodes that hold a
    # coalition member, in the same order, and for the counterexample it
    # returns, the reference's last run whole: the reported instance's
    # split flows and its final flow.
    flows = []
    nodes = []  # the agents of each open min_ratio call
    real = leximin.max_flow
    monkeypatch.setattr(
        leximin, "max_flow",
        lambda network: flows[-1].append((nodes[-1] if nodes else None, len(network.edges)))
        or real(network),
    )
    real_min_ratio = leximin.min_ratio

    def min_ratio(agents, *args):
        nodes.append(frozenset(agents))
        try:
            return real_min_ratio(agents, *args)
        finally:
            nodes.pop()

    monkeypatch.setattr(leximin, "min_ratio", min_ratio)

    def compare(cases, lowered=ZERO):
        """Assert that both searches return the same result and solve the
        same networks on each case; return the search's results."""
        results = []
        for inst, size, grid, budget in cases:
            flows.append([])
            got = search_manipulation(inst, size, grid, budget=budget)
            flows.append([])
            want = reference_search(inst, size, grid, budget=budget, lowered=lowered)
            solves = [[]]
            for flow in flows[-1]:
                solves[-1].append(flow)
                if flow[0] is None:
                    solves.append([])
            truthful, *runs, rest = solves
            assert rest == []
            expected = truthful[:-1]
            for (coalition, _, _), run in zip(
                reference_runs(inst, size, grid, want.runs), runs, strict=True
            ):
                expected += [f for f in run[:-1] if not f[0].isdisjoint(coalition)]
            if want.counterexample:
                expected += runs[-1]
            assert (got, flows[-2]) == (want, expected), (inst, size, grid)
            results.append(got)
        return results

    instances = corpus[::10] + [staircase(n) for n in (2, 3, 4)] + [si_bound_instance(3)]
    results = compare(search_cases(instances, 20))
    assert any(got.truncated for got in results)
    assert any(not got.truncated and got.runs > 0 for got in results)
    # The mechanism is group strategyproof, so no case above reports a run.
    # With every truthful utility lowered by 1/1000, some cases do, and
    # their reported runs' flows are compared too.
    lower_search_baseline(monkeypatch)
    results = compare(search_cases(corpus[:20], 12), lowered=Rational(1, 1000))
    assert any(got.counterexample is not None for got in results)


def test_search_matches_the_reference_on_the_reference_rule():
    # Two-agent, two-object instances keep the rule's grid search cheap.
    # Both searches skip the misreports it cannot allocate, several find
    # its manipulations, and random_instance(18) is outside its domain.
    # The grid (1/3, 3) widens the view's scale by 3.  Coalitions of 2 run
    # on the lemma 6 instance, whose misreports the rule allocates slowly,
    # at a small budget.
    cases = [random_instance(s, num_agents=2, num_objects=2) for s in (2, 6, 14, 36, 44)]
    grids = (None, (ONE, Rational(2)), (Rational(1, 3), Rational(3)))
    searches = [(inst, 1, grid, 30) for inst in cases + [random_instance(18)] for grid in grids]
    searches += [(si_misreport_instance(), 2, None, 6), (si_misreport_instance(), 2, grids[2], 3)]
    skipped = found = 0
    for inst, size, grid, budget in searches:
        try:
            want = reference_search(inst, size, grid, budget=budget, mechanism="mmf-si")
        except GridInfeasibleError:
            with pytest.raises(GridInfeasibleError):
                search_manipulation(inst, size, grid, budget=budget, mechanism="mmf-si")
            continue
        got = search_manipulation(inst, size, grid, budget=budget, mechanism="mmf-si")
        assert got == want, (inst, size, grid)
        skipped += got.skipped > 0
        found += got.counterexample is not None
    assert skipped and found


def test_search_matches_the_reference_on_candidates(corpus, monkeypatch):
    # No corpus instance makes the mechanism hand a coalition a gain (the
    # rule is group strategyproof), so lowering every truthful utility by
    # 1/1000 makes candidates: a run is one when no member falls below its
    # lowered utility and one exceeds it.  The reference checks each
    # candidate's allocation, structure and floors, the search its floors
    # alone, and both must report the same first run.
    lower_search_baseline(monkeypatch)
    checks = []
    real_check = harness.structure_check
    monkeypatch.setattr(
        harness, "structure_check", lambda *args: checks.append(1) or real_check(*args)
    )
    found = 0
    rejected = []
    for inst, size, grid, budget in search_cases(corpus[:40], 12):
        got = search_manipulation(inst, size, grid, budget=budget)
        want = reference_search(
            inst, size, grid, budget=budget, lowered=Rational(1, 1000), rejected=rejected
        )
        assert got == want, (inst, size, grid)
        found += got.counterexample is not None
    # Some candidates were accepted, and the reference rejected some by
    # their floors; the search checked the structure of its reported runs
    # only.
    assert found and rejected
    assert len(checks) == found


def test_only_the_reported_run_takes_the_final_flow(corpus, monkeypatch):
    # A whole split tree takes exactly 2k - 1 - s flows for its k tiers, s
    # of them single-agent: the truthful run's, and the reported run's,
    # which goes through ``lexicographic_allocation`` once: its reported
    # instance's split tree, the final flow, and ``structure_check``.  Each
    # misreport run walks only the nodes that hold a coalition member, one
    # flow per multi-agent such node (``member_nodes``).
    lower_search_baseline(monkeypatch)
    events = []
    real_flow = leximin.max_flow
    monkeypatch.setattr(
        leximin, "max_flow", lambda network: events.append("flow") or real_flow(network)
    )
    real_split = harness._split_tree

    def split_tree(*args):
        start = len(events)
        tiers, unit = real_split(*args)
        singles = sum(len(tier) == 1 for _, tier, _ in tiers)
        assert events[start:] == ["flow"] * (2 * len(tiers) - 1 - singles)
        events.append("tiers")
        return tiers, unit

    monkeypatch.setattr(harness, "_split_tree", split_tree)
    monkeypatch.setattr(leximin, "_split_tree", split_tree)
    real_walk = harness._split_walk
    coalitions = []
    saved = []  # per run, the flows its whole split tree takes beyond its walk

    def split_walk(view, keep):
        start = len(events)
        leaves = real_walk(view, keep)
        walked = events[start:]
        tiers, _ = real_split(view)
        del events[start:]
        assert walked == ["flow"] * member_nodes(view, tiers, coalitions.pop(0))
        singles = sum(len(tier) == 1 for _, tier, _ in tiers)
        saved.append(2 * len(tiers) - 1 - singles - len(walked))
        events.append("run")
        return leaves

    monkeypatch.setattr(harness, "_split_walk", split_walk)
    real_final = leximin._final_flow
    monkeypatch.setattr(
        leximin, "_final_flow", lambda *args: events.append("final") or real_final(*args)
    )
    real_check = harness.structure_check
    monkeypatch.setattr(
        harness, "structure_check", lambda *args: events.append("check") or real_check(*args)
    )
    found = flowed = 0
    for inst, size, grid, budget in search_cases(corpus[:10], 12):
        events.clear()
        coalitions[:] = [coalition for coalition, _, _ in reference_runs(inst, size, grid, budget)]
        got = search_manipulation(inst, size, grid, budget=budget)
        reported = got.counterexample is not None
        steps = [e for e in events if e != "flow"]
        assert steps == ["tiers"] + ["run"] * got.runs + ["tiers", "final", "check"] * reported
        found += reported
        flowed += "flow" in events[events.index("tiers") + 1:]
    assert found and flowed
    assert max(saved) > 0


def test_int_floors_match_the_rational_floors(corpus, monkeypatch):
    # Every floor the search computes, as an int over its member's unit
    # X x e, equals the reference's rational floor of that member on the
    # reported Instance.  A run stops at its first member below its
    # baseline, so each run's floors are a prefix of its coalition's.  Each
    # run's view, with its demand and totals replaced, is the reported
    # instance's: its whole split tree gives the reported profile, so no
    # agent's tier, a non-member's included, differs from the reported
    # instance's.
    truthful = []  # the truthful run's view
    floors = []  # per run, the floors computed on it
    views = []  # per run, its view
    real_split = harness._split_tree

    def split_tree(view):
        truthful.append(view)
        return real_split(view)

    monkeypatch.setattr(harness, "_split_tree", split_tree)
    real_walk = harness._split_walk

    def split_walk(view, keep):
        floors.append([])
        views.append(view)
        return real_walk(view, keep)

    monkeypatch.setattr(harness, "_split_walk", split_walk)
    real_floor = harness._utility_floor

    def recorded(cap, e, *args):
        floor = real_floor(cap, e, *args)
        floors[-1].append(Rational(floor, views[-1].scale * e))
        return floor

    monkeypatch.setattr(harness, "_utility_floor", recorded)
    pairs_of_members = 0
    for inst, size, grid, budget in search_cases(corpus[:40], 12):
        truthful.clear()
        floors.clear()
        views.clear()
        search_manipulation(inst, size, grid, budget=budget)
        [view] = truthful
        assert leximin._profile(view, *real_split(view)) == breakpoints(inst)
        for got, view, (coalition, pairs, combo) in zip(
            floors, views, reference_runs(inst, size, grid, budget), strict=True
        ):
            reported = Instance(
                inst.agents, inst.endowment, inst.objects, inst.supply,
                {**{k: v for k, v in inst.demand.items() if k[0] not in coalition},
                 **dict(zip(pairs, combo))},
            )
            profile = breakpoints(reported)
            assert leximin._profile(view, *real_split(view)) == profile, (inst, coalition, combo)
            want = [reference_floor(inst, reported, profile, a) for a in coalition]
            assert got and got == want[: len(got)], (inst, coalition, combo)
            pairs_of_members += len(got) == 2
    assert pairs_of_members


# Seeds of 7 x 7 random instances at density 2.5 / 7 with 6 or more tiers.
SPARSE_TIER_SEEDS = (1, 3, 13, 16, 18, 22, 23, 24, 25, 26, 28, 29, 34, 35, 39, 41, 46, 47,
                     56, 59, 60)


@pytest.mark.parametrize("lowered", [False, True], ids=["truthful", "lowered"])
def test_pruned_floors_match_the_full_tree_floors(corpus, equal_corpus, monkeypatch, lowered):
    # Every member of every run: the walk's leaves are the whole split
    # tree's tiers that hold a member, each leaf's ``earlier`` holds the
    # objects the slower tiers exhaust, and the member's floor over its
    # leaf's unit D x e equals its floor over the whole tree's unit D x L,
    # as ints over D x e x L.  With the baseline lowered, runs are admitted
    # and reported too.
    if lowered:
        lower_search_baseline(monkeypatch)
    runs = []  # per run, its view and the leaves its walk returned
    real_walk = harness._split_walk

    def split_walk(view, keep):
        runs.append((view, real_walk(view, keep)))
        return runs[-1][1]

    monkeypatch.setattr(harness, "_split_walk", split_walk)
    instances = corpus[::5] + equal_corpus[::5]
    instances += [random_instance(seed, 7, 7, 2.5 / 7) for seed in SPARSE_TIER_SEEDS]
    instances += [staircase(n) for n in range(2, 15)]
    members = reported = 0
    for inst, size, grid, budget in search_cases(instances, 6):
        runs.clear()
        result = search_manipulation(inst, size, grid, budget=budget)
        reported += result.counterexample is not None
        truth = leximin._scaled(inst, DEFAULT_GRID if grid is None else grid).demand
        for (view, leaves), (coalition, _, _) in zip(
            runs, reference_runs(inst, size, grid, result.runs), strict=True
        ):
            tiers, unit = leximin._split_tree(view)
            walked = {}
            for cap, e, tier, exhausted, earlier in leaves:
                assert (cap * unit) % e == 0
                earlier = leximin._earlier_objects(earlier)
                walked[cap * unit // e, tier, exhausted] = (cap, e, earlier)
            want = {t for t in tiers if not t[1].isdisjoint(coalition)}
            assert set(walked) == want, (inst, coalition)
            slower = set()
            for rate, tier, exhausted in tiers:
                if (rate, tier, exhausted) in walked:
                    cap, e, earlier = walked[rate, tier, exhausted]
                    assert earlier == slower
                    for a in tier.intersection(coalition):
                        entries = [
                            (b, view.demand.get((a, b), 0), truth.get((a, b), 0))
                            for b in inst.objects
                        ]
                        endowment = view.endowment[a]
                        pruned = harness._utility_floor(
                            cap, e, exhausted, earlier, endowment, entries
                        )
                        full = full_tree_floor(tiers, unit, endowment, a, entries)
                        assert pruned * unit == full * e, (inst, coalition, a)
                        members += 1
                slower |= exhausted
    assert members > 5000
    assert bool(reported) == lowered


def test_scale_record_of_the_search_on_ci_instance(tmp_path, monkeypatch):
    # The 1000 x 1000 instance that ``generate random --agents 1000 --objects
    # 1000 --density 0.0025`` writes, searched as ``manipulate --coalition 3
    # --budget 20`` does: the truthful run's whole split tree takes 701
    # flows, and the 20 runs, which walk only their members' nodes, 283.
    # Whole split trees for the runs took 14681 flows in all.
    path = tmp_path / "r1000.json"
    assert cli.main(["generate", "random", "--agents", "1000", "--objects", "1000",
                     "--density", "0.0025", "--out", str(path)]) == 0
    inst = random_instance(0, 1000, 1000, 0.0025)
    assert load_instance(str(path)) == inst
    flows = []
    real = leximin.max_flow
    monkeypatch.setattr(leximin, "max_flow", lambda network: flows.append(1) or real(network))
    leximin.breakpoints(inst)
    assert len(flows) == 701
    flows.clear()
    result = search_manipulation(inst, 3, budget=20)
    assert (result.runs, result.truncated, result.counterexample) == (20, True, None)
    assert len(flows) == 984


def eager_space(instance, coalition_size, grid):
    absolute = grid is None
    grid = DEFAULT_GRID if absolute else tuple(Rational(m) for m in grid)
    return reference_grids(instance, coalition_size, grid, absolute)[1]


def sparse_space(instance, coalition_size, grid):
    absolute = grid is None
    grid = DEFAULT_GRID if absolute else tuple(Rational(m) for m in grid)
    ratios = {(int(m.numerator), int(m.denominator)) for m in grid}
    view = leximin._scaled(instance, grid)
    lists = {
        (a, b): harness._values(t, view.supply[b], ratios, absolute)
        for (a, b), t in view.demand.items()
    }
    blank = {b: harness._values(0, s, ratios, absolute) for b, s in view.supply.items()}
    return harness._search_space(view, coalition_size, lists, blank)


def test_space_matches_the_eager_count(corpus):
    # Every coalition size, so that every term of the symmetric sum meets
    # the enumeration.
    for inst in corpus[:200]:
        for size in range(1, len(inst.agents) + 1):
            for grid in GRIDS:
                assert sparse_space(inst, size, grid) == eager_space(inst, size, grid)


def test_space_enumerates_no_coalition(monkeypatch):
    # 2000 agents make C(2000, 3), over 10^9, coalitions: the count must
    # not visit them.
    inst = random_instance(0, 2000, 2000, 0.00125)

    def enumerated(*args):
        raise AssertionError("the search space enumerated the coalitions")

    monkeypatch.setattr(itertools, "combinations", enumerated)
    for size in (2, 3):
        assert sparse_space(inst, size, None) > 0


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
        for size in range(1, len(inst.agents) + 1):
            for grid in grids:
                assert sparse_space(inst, size, grid) == eager_space(inst, size, grid), (
                    inst, size, grid
                )
