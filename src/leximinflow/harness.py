"""Cross-instance mechanism checks: monotonicity, substructure, manipulation.

Each check perturbs or restricts an instance, reruns the mechanism or the
oracle, and compares exact utilities: supply increases must never hurt
anyone, endowment shrinks and departures must never hurt the unchanged
agents, restrictions of an audited allocation must stay optimal for the
residual instance, and no small coalition should profit from misreporting
demands.  The manipulation search enumerates a finite misreport grid, so
absence of a counterexample is evidence within the declared coverage, not a
proof.

The mechanism's utilities are read off its breakpoint profile: every max
flow of its final network saturates every source edge, so agent a's utility
is endowment(a) x rate(a) whichever allocation the flow picks.

The ``lmmf`` manipulation search solves the truthful instance's whole split
tree once, with its self-checks.  A misreport run walks only the split nodes
that hold a coalition member: a member's utility floor needs only its own
tier's int rate pair, the objects that tier exhausts and those that slower
tiers exhausted.  So a run checks each node it walks (``min_ratio``'s cut
and split checks) but not the whole tree's rate order or absorption
identity.  A run whose floors admit it is solved again whole, through
``lexicographic_allocation`` and ``structure_check``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .core import (
    Allocation,
    Instance,
    InternalCheckError,
    object_totals,
    sub_instance,
    utilities,
)
from .leximin import (
    _earlier_objects,
    _scaled,
    _split_tree,
    _split_walk,
    breakpoints,
    lexicographic_allocation,
    structure_check,
)
from .oracle import (
    GRID_RESOLUTION, MAX_ORACLE_AGENTS, GridInfeasibleError, oracle_breakpoints, oracle_mmf_si
)
from .rational import ONE, Rational, ZERO, format_rational
from .reporting import PropertyReport, failing, passing

ENDOWMENT_DECREASE = "endowment-decrease"
AGENT_REMOVAL = "agent-removal"

_SUPPLY_STEPS = (Rational(1, 4), Rational(1, 2), ONE, Rational(2))
_ENDOWMENT_FACTORS = (Rational(1, 4), Rational(1, 2), Rational(3, 4))


def _mechanism_utilities(instance: Instance) -> dict[str, Rational]:
    """Every agent's utility under the mechanism: endowment x rate."""
    rates = breakpoints(instance).per_agent
    return {a: instance.endowment[a] * rates[a] for a in instance.agents}


def check_rm(instance: Instance, trials: int, seed: int = 0) -> PropertyReport:
    """Supply increases must leave every agent at least as well off.

    Each trial raises a random nonempty subset of the objects by steps drawn
    from a small rational grid, seeded.  A failure's note lists the raised
    objects in instance order, each with its step.
    """
    base = _mechanism_utilities(instance)
    rng = random.Random(seed)
    perturbations = []
    for _ in range(trials):
        if not instance.objects:
            break
        chosen = rng.sample(instance.objects, rng.randint(1, len(instance.objects)))
        perturbations.append({b: rng.choice(_SUPPLY_STEPS) for b in chosen})
    for bump in perturbations:
        raised = Instance(
            agents=instance.agents,
            endowment=instance.endowment,
            objects=instance.objects,
            supply={
                b: instance.supply[b] + bump.get(b, ZERO) for b in instance.objects
            },
            demand=instance.demand,
        )
        after = _mechanism_utilities(raised)
        for a in instance.agents:
            if after[a] < base[a]:
                raised_by = ", ".join(
                    f"{b} +{format_rational(bump[b])}" for b in instance.objects if b in bump
                )
                return failing(
                    "resource-monotonic", (a,), after[a], base[a],
                    note=f"utility dropped after supply increase {raised_by}",
                    seed=seed,
                )
    return passing("resource-monotonic", detail=f"{len(perturbations)} perturbations", seed=seed)


def check_pm(instance: Instance, kind: str, trials: int, seed: int = 0) -> PropertyReport:
    """Endowment decreases or departures must never hurt the unchanged agents.

    ``kind`` is ENDOWMENT_DECREASE or AGENT_REMOVAL.  Each trial shrinks or
    removes a random nonempty subset of the agents, with endowment factors
    drawn from a small rational grid, seeded.
    """
    if kind not in (ENDOWMENT_DECREASE, AGENT_REMOVAL):
        raise ValueError(f"unknown shrink kind {kind!r}")
    base = _mechanism_utilities(instance)
    rng = random.Random(seed)
    shrinks: list[dict[str, Rational]] = []
    for _ in range(trials):
        if not instance.agents:
            break
        chosen = rng.sample(instance.agents, rng.randint(1, len(instance.agents)))
        if kind == AGENT_REMOVAL:
            shrinks.append({a: ZERO for a in chosen})
        else:
            shrinks.append({a: rng.choice(_ENDOWMENT_FACTORS) for a in chosen})
    for factors in shrinks:
        removed = {a for a, f in factors.items() if f == ZERO}
        keep = [a for a in instance.agents if a not in removed]
        shrunk = Instance(
            agents=tuple(keep),
            endowment={
                a: instance.endowment[a] * factors.get(a, ONE) for a in keep
            },
            objects=instance.objects,
            supply=instance.supply,
            demand={k: v for k, v in instance.demand.items() if k[0] not in removed},
        )
        after = _mechanism_utilities(shrunk)
        for a in keep:
            if a in factors:
                continue
            if after[a] < base[a]:
                return failing(
                    "population-monotonic", (a,), after[a], base[a],
                    note=f"utility dropped after shrinking {sorted(factors)}",
                    seed=seed,
                )
    return passing("population-monotonic", detail=f"{len(shrinks)} shrinks", seed=seed)


def check_substructure(
    instance: Instance, allocation: Allocation, trials: int, seed: int = 0
) -> PropertyReport:
    """Removing agents with their share leaves an allocation that is still
    optimal for the residual instance.

    For random agent subsets, the allocation restricted to the remaining
    agents must reproduce, agent by agent, the brute-force optimum of the
    residual instance; one that hands out more than an object's supply leaves
    no residual and fails.  A draw that removes every agent checks nothing and
    is not counted.  Limited to ``MAX_ORACLE_AGENTS`` agents by the oracle.
    """
    if len(instance.agents) > MAX_ORACLE_AGENTS:
        raise ValueError(
            "substructure check relies on the subset-enumeration oracle"
            f" (<= {MAX_ORACLE_AGENTS} agents)"
        )
    for b, total in object_totals(allocation.amount).items():
        if b in instance.supply and total > instance.supply[b]:
            return failing(
                "substructure", (b,), total, instance.supply[b],
                note="object handed out beyond its supply",
            )
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        removed = [a for a in instance.agents if rng.random() < 0.5]
        residual = sub_instance(instance, allocation, removed)
        if not residual.agents:
            continue
        checked += 1
        expected = oracle_breakpoints(residual)
        for a, got in utilities(residual, allocation).items():
            want = residual.endowment[a] * expected.per_agent[a]
            if got != want:
                return failing(
                    "substructure", (a,), got, want,
                    note=f"restriction not optimal after removing {sorted(removed)}",
                    seed=seed,
                )
    return passing("substructure", detail=f"{checked} subsets", seed=seed)


@dataclass(frozen=True)
class ManipulationReport:
    """One coalition misreport, classified.

    Utilities are always measured against the coalition's true demands; the
    reported demands enter only through the mechanism run.  A winner gained
    strictly, a loser lost strictly; the report is a counterexample to
    strategyproofness iff there is a winner and no loser.
    """

    coalition: tuple[str, ...]
    true_demands: Mapping[tuple[str, str], Rational]
    reported_demands: Mapping[tuple[str, str], Rational]
    truthful_utilities: Mapping[str, Rational]
    misreport_utilities: Mapping[str, Rational]
    winners: tuple[str, ...] = field(init=False)
    losers: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        winners = []
        losers = []
        for a in self.coalition:
            if self.misreport_utilities[a] > self.truthful_utilities[a]:
                winners.append(a)
            elif self.misreport_utilities[a] < self.truthful_utilities[a]:
                losers.append(a)
        object.__setattr__(self, "winners", tuple(winners))
        object.__setattr__(self, "losers", tuple(losers))

    @property
    def is_counterexample(self) -> bool:
        return bool(self.winners) and not self.losers


@dataclass(frozen=True)
class SearchResult:
    """Outcome and coverage of one manipulation search.

    ``runs`` mechanism invocations actually performed out of ``space`` distinct
    non-identity misreports the grid spans; ``truncated`` marks an exhausted
    budget.  ``skipped`` counts the runs on misreports outside the mechanism's
    domain (the reference rule's grid holds no full-entitlement allocation),
    which are not compared.
    """

    counterexample: Optional[ManipulationReport]
    runs: int
    space: int
    truncated: bool
    skipped: int


def _utility_floor(cap: int, e: int, exhausted, earlier, endowment: int, entries) -> int:
    """Lower bound on a member's true utility over every allocation the
    mechanism could return for a run, as an int over X x e, for the view's
    demand scale X and the node scale e of the member's tier: over that
    unit the tier's rate, the int pair (cap, e), is the int ``cap``.
    ``exhausted`` holds the objects the tier exhausts, ``earlier`` those
    that slower tiers exhausted, and ``entries`` the member's (object,
    reported int demand, true int demand).

    The tier structure forces full service on objects never exhausted by the
    agent's tier and forbids service from earlier tiers' objects; only the
    split across the agent's own tier objects is free, and its total is fixed
    by the agent's frozen utility, endowment x rate.  The worst split fills
    valueless headroom first.
    """
    served = headroom = 0
    budget = endowment * cap
    for b, reported, true in entries:
        kept = min(reported, true)
        if b in exhausted:
            headroom += reported - kept
        elif b not in earlier:
            served += kept
            budget -= reported * e
    return served * e + max(0, budget - headroom * e)


def _values(t: int, s: int, ratios, absolute: bool) -> list[int]:
    """The sorted ints an entry may report, in the units of the search's int
    view: its true int ``t`` times every multiplier u / v of ``ratios``,
    which is u x (t // v), and with absolute reports also 0 and the object's
    int supply ``s``."""
    values = {u * (t // v) for u, v in ratios}
    if absolute:
        values |= {0, s}
    return sorted(values)


def _search_space(view, coalition_size: int, lists: Mapping, blank: Mapping) -> int:
    """Distinct non-identity misreports over every coalition of the given
    size: per coalition, the product of its entries' value counts, less one
    when every true value is on the grid.

    ``view`` is the search's int view (``leximin._View``), ``lists`` the
    value list (``_values``) of each of its demand entries and ``blank``
    each object's list for an entry without demand.  An agent's product is
    that of every ``blank`` length, with its own objects' ``blank`` lengths
    traded for its entries' list lengths.  A coalition's product is the
    product of its members', so the sum over coalitions is the elementary
    symmetric sum of the agents' products, taken in one pass over the
    agents, less one for each coalition whose members all find their true
    values on their lists.  An empty grid leaves every list empty, and no
    misreport, the identity included."""
    if not all(blank.values()):
        return 0
    product = 1
    for values in blank.values():
        product *= len(values)
    factors = dict.fromkeys(view.agents, product)
    # 0 is on every nonempty blank list, so only demand entries can be off.
    on_grid = dict.fromkeys(view.agents, True)
    for (a, b), values in lists.items():
        factors[a] = factors[a] // len(blank[b]) * len(values)
        on_grid[a] = on_grid[a] and view.demand[a, b] in values
    sums = [1] + [0] * coalition_size
    for factor in factors.values():
        for k in range(coalition_size, 0, -1):
            sums[k] += sums[k - 1] * factor
    return sums[coalition_size] - math.comb(sum(on_grid.values()), coalition_size)


def _truthful(view) -> tuple[dict[str, int], int]:
    """Every agent's truthful ``lmmf`` utility, endowment x rate, as an int
    over the returned unit X x L, for the view's demand scale X and the rate
    unit L of its split tree."""
    tiers, unit = _split_tree(view)
    utilities = {a: view.endowment[a] * rate for rate, tier, _ in tiers for a in tier}
    return utilities, view.scale * unit


def _floor_runner(
    view, baseline: Mapping[str, int], baseline_unit: int, coalition: Sequence[str],
    pairs: Sequence, identity: Sequence[int],
):
    """The ``lmmf`` run function for one coalition, on the search's int view
    of the truthful instance (``leximin._scaled``), over the other agents'
    int entries and their per-object totals, fixed once; ``baseline`` holds
    the truthful utilities over ``baseline_unit`` (``_truthful``) and
    ``identity`` the true ints of ``pairs``.  A run takes the coalition's
    reported ints, one per entry of ``pairs``, and returns whether its tier
    floors admit it.

    A run walks the solver's split tree (``leximin._split_walk``) on the
    view with its demand and totals replaced, the coalition's nonzero
    reported ints in place of its entries: the reported instance's int view
    at the search's scale.  The walk expands only the nodes that hold a
    member, so a run takes one flow per multi-agent node on the members'
    root-to-leaf paths, and each member's leaf gives its floor what it
    needs: its tier's int pair (cap, e), the tier's exhausted objects, and
    the objects slower tiers exhausted.  Every expanded node runs
    ``min_ratio``'s cut and split checks; the whole tree's rate order and
    absorption identity are checked on the truthful run and on a reported
    run only.  The view validates the truthful instance once, and every
    reported value is 0, one of its supplies or a nonnegative multiple of
    one of its demands, so each reported instance is valid by construction
    and no run validates it.

    A run is admitted iff some member's tier floor (``_utility_floor``)
    beats its truthful utility and none falls below it: the mechanism's
    allocation obeys the tier structure, so its utilities are at least the
    floors.  A floor is an int over X x e, for the view's demand scale X
    and its tier's node scale e, and compares with the truthful utility by
    cross-multiplication.  A run that is not admitted skips the final flow.
    """
    others = {k: d for k, d in view.demand.items() if k[0] not in coalition}
    other_totals = object_totals(others)
    members = [
        (a, [(i, b, identity[i]) for i, (x, b) in enumerate(pairs) if x == a],
         view.endowment[a], baseline[a])
        for a in coalition
    ]
    coalition_set = frozenset(coalition)

    def holds_a_member(agents) -> bool:
        return not coalition_set.isdisjoint(agents)

    def run(combo: Sequence[int]) -> bool:
        demand = dict(others)
        totals = dict(other_totals)
        for k, d in zip(pairs, combo):
            if d:
                demand[k] = d
                totals[k[1]] = totals.get(k[1], 0) + d
        leaves = _split_walk(view._replace(demand=demand, totals=totals), holds_a_member)
        leaf_of = {}
        for cap, e, tier, exhausted, earlier in leaves:
            leaf_of.update(
                dict.fromkeys(coalition_set & tier, (cap, e, exhausted, _earlier_objects(earlier)))
            )
        gain = False
        for a, own, endowment, base in members:
            cap, e, exhausted, earlier = leaf_of[a]
            entries = [(b, combo[i], t) for i, b, t in own]
            lhs = _utility_floor(cap, e, exhausted, earlier, endowment, entries) * baseline_unit
            rhs = base * view.scale * e
            if lhs < rhs:
                return False
            gain = gain or lhs > rhs
        return gain

    return run


def _reported_instance(
    instance: Instance, coalition: Sequence[str], reported_entries: Mapping
) -> Instance:
    return Instance(
        agents=instance.agents,
        endowment=instance.endowment,
        objects=instance.objects,
        supply=instance.supply,
        demand={
            **{k: v for k, v in instance.demand.items() if k[0] not in coalition},
            **reported_entries,
        },
    )


def _mechanism_allocation(reported: Instance) -> Allocation:
    """The main mechanism's allocation of a reported instance, once it passes
    ``structure_check``."""
    allocation, profile = lexicographic_allocation(reported)
    verdict = structure_check(reported, allocation, profile)
    if not verdict.passed:
        raise InternalCheckError(f"misreport run violated its own structure: {verdict.witness}")
    return allocation


def _reference_allocation(reported: Instance) -> Allocation:
    """The reference rule's allocation of a reported instance."""
    return oracle_mmf_si(reported)[0]


def search_manipulation(
    instance: Instance,
    coalition_size: int,
    demand_grid: Optional[Sequence[Rational]] = None,
    budget: int = 100_000,
    mechanism: str = "lmmf",
) -> SearchResult:
    """Look for a profitable coalition misreport over a finite demand grid.

    Every coalition of the given size is tried against every combination of
    per-entry reported values: each true demand d(a,b) scaled by each grid
    multiplier, plus (for the default grid) the pure reports 0 and the
    object's full supply.  The mechanism runs on the misreported instance;
    gains and losses are measured with true demands.  For the main mechanism a
    run is only reported if the gain survives for every allocation the
    reported instance admits (tie-breaking could otherwise fake a gain);
    the search stops, marked truncated, once ``budget`` mechanism runs are
    spent.  A misreport the reference rule cannot allocate is skipped and
    counted; a truthful instance it cannot allocate raises
    ``GridInfeasibleError``.

    Both mechanisms search one int view of the instance (``leximin._scaled``),
    which validates it once, raising ``InvalidInstanceError`` before any run.
    The view scales supplies and demands by X, the lcm of their denominators
    times the lcm of the grid's, so every value the grid can report is an
    int in its units: 0, a supply s, or a multiple m x t of a true demand t,
    which is u x (t // v) for the multiplier m = u / v.  Once the truthful
    run has succeeded, each demand entry's value list, and each object's
    list for an entry without demand, is built once (``_values``); every
    coalition's report grid reads those lists, and ``space`` is counted from
    them in one pass over the agents (``_search_space``).  The main
    mechanism decides each run on the view's ints (``_truthful`` and
    ``_floor_runner``).  A run it admits, and every reference-rule run, is
    allocated as a reported ``Instance``, each reported value d being
    d / X, and classified by a ``ManipulationReport``.
    """
    if not instance.agents:
        raise ValueError("the instance has no agents, so there is no coalition to search")
    if not 1 <= coalition_size <= len(instance.agents):
        raise ValueError(
            f"coalition size must lie in [1, {len(instance.agents)}], got {coalition_size}"
        )
    if budget < 1:
        raise ValueError("budget must be at least 1 mechanism run")
    absolute = demand_grid is None
    grid = (
        (ZERO, Rational(1, 2), ONE, Rational(2))
        if demand_grid is None
        else tuple(Rational(m) for m in demand_grid)
    )
    for m in grid:
        if m < ZERO:
            raise ValueError(f"grid multipliers must be nonnegative, got {m}")
    if mechanism not in ("lmmf", "mmf-si"):
        raise ValueError(f"unknown mechanism {mechanism!r}")

    view = _scaled(instance, grid)
    if mechanism == "lmmf":
        baseline, baseline_unit = _truthful(view)
        truthful = {a: Rational(u, baseline_unit) for a, u in baseline.items()}
        allocate = _mechanism_allocation
    else:
        try:
            truthful_alloc, _ = oracle_mmf_si(instance)
        except GridInfeasibleError as exc:
            raise GridInfeasibleError(
                "the truthful instance lies outside the mmf-si reference rule's domain"
                " (at most 3 agents and 2 objects, and a full-entitlement allocation"
                f" on the {GRID_RESOLUTION} grid): {exc}"
            ) from exc
        truthful = utilities(instance, truthful_alloc)
        allocate = _reference_allocation
    ratios = {(int(m.numerator), int(m.denominator)) for m in grid}
    supply, demand = view.supply, view.demand
    lists = {(a, b): _values(t, supply[b], ratios, absolute) for (a, b), t in demand.items()}
    blank = {b: _values(0, s, ratios, absolute) for b, s in supply.items()}
    space = _search_space(view, coalition_size, lists, blank)

    runs = 0
    skipped = 0
    for coalition in itertools.combinations(instance.agents, coalition_size):
        pairs = [(a, b) for a in coalition for b in instance.objects]
        value_lists = [lists.get(p, blank[p[1]]) for p in pairs]
        identity = tuple(demand.get(p, 0) for p in pairs)
        admits = (
            _floor_runner(view, baseline, baseline_unit, coalition, pairs, identity)
            if mechanism == "lmmf" else None
        )
        for combo in itertools.product(*value_lists):
            if combo == identity:
                continue
            if runs >= budget:
                return SearchResult(
                    counterexample=None, runs=runs, space=space, truncated=True,
                    skipped=skipped,
                )
            runs += 1
            if admits is not None and not admits(combo):
                continue
            reported_entries = {k: Rational(d, view.scale) for k, d in zip(pairs, combo)}
            try:
                allocation = allocate(_reported_instance(instance, coalition, reported_entries))
            except GridInfeasibleError:
                skipped += 1
                continue
            misreport = utilities(instance, allocation)
            report = ManipulationReport(
                coalition=coalition,
                true_demands={p: instance.demand_between(*p) for p in pairs},
                reported_demands=reported_entries,
                truthful_utilities={a: truthful[a] for a in coalition},
                misreport_utilities={a: misreport[a] for a in coalition},
            )
            if report.is_counterexample:
                return SearchResult(
                    counterexample=report, runs=runs, space=space, truncated=False,
                    skipped=skipped,
                )
            if admits is not None:
                # The mechanism's utilities are at least the floors, so only
                # a wrong floor admits a run that is no counterexample.
                raise InternalCheckError(
                    f"tier floors admitted a misreport that is no counterexample:"
                    f" coalition {coalition}, winners {report.winners}, losers {report.losers}"
                )
    return SearchResult(
        counterexample=None, runs=runs, space=space, truncated=False, skipped=skipped
    )
