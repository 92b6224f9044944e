"""Cross-instance mechanism checks: monotonicity, substructure, manipulation.

Each check perturbs or restricts an instance, reruns the mechanism or the
oracle, and compares exact utilities: supply increases must never hurt
anyone, endowment shrinks and departures must never hurt the unchanged
agents, restrictions of an audited allocation must stay optimal for the
residual instance, and no small coalition should profit from misreporting
demands.  The manipulation search enumerates a finite misreport grid, so
absence of a counterexample is evidence within the declared coverage, not a
proof.

The search validates the truthful instance and scales it to ints once, and
runs the main mechanism's split tree and final flow on that int view for the
truthful run and for every misreport: a reported value is 0, a supply or a
grid multiple of a demand, so each reported instance is valid by
construction.  Utilities are compared as ints, and the rational utilities,
the reported ``Instance`` and its ``Allocation`` are built only for a
candidate counterexample.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
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
    BreakpointProfile,
    _as_ints,
    _common_denominator,
    _final_flow,
    _profile,
    _require_valid,
    _split_tree,
    lexicographic_allocation,
    structure_check,
)
from .oracle import GRID_RESOLUTION, GridInfeasibleError, oracle_breakpoints, oracle_mmf_si
from .rational import ONE, Rational, ZERO
from .reporting import PropertyReport, failing, passing

ENDOWMENT_DECREASE = "endowment-decrease"
AGENT_REMOVAL = "agent-removal"

_SUPPLY_STEPS = (Rational(1, 4), Rational(1, 2), ONE, Rational(2))
_ENDOWMENT_FACTORS = (Rational(1, 4), Rational(1, 2), Rational(3, 4))


def _mechanism_utilities(instance: Instance) -> dict[str, Rational]:
    allocation, _ = lexicographic_allocation(instance)
    return utilities(instance, allocation)


def check_rm(instance: Instance, trials: int, seed: int = 0) -> PropertyReport:
    """Supply increases must leave every agent at least as well off.

    Each trial raises a random nonempty subset of the objects by steps drawn
    from a small rational grid, seeded.
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
                return failing(
                    "resource-monotonic", (a,), after[a], base[a],
                    note=f"utility dropped after supply increase {bump}",
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
    is not counted.  Limited to 12 agents by the oracle.
    """
    if len(instance.agents) > 12:
        raise ValueError("substructure check relies on the subset-enumeration oracle (<= 12 agents)")
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


def _true_utility_floor(
    instance: Instance,
    reported: Instance,
    profile: BreakpointProfile,
    agent: str,
) -> Rational:
    """Lower bound on the agent's true utility over every allocation the
    mechanism could return for the reported instance.

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


def _entry_values(true_value: Rational, supply: Rational, grid, absolute: bool) -> list:
    """The sorted values one entry may report: the true value times each grid
    multiplier, and with absolute reports also 0 and the object's supply."""
    values = {m * true_value for m in grid}
    if absolute:
        values |= {ZERO, supply}
    return sorted(values)


def _search_space(instance: Instance, coalition_size: int, grid, absolute: bool) -> int:
    """Distinct non-identity misreports over every coalition of the given
    size: per coalition, the product of its entries' value counts, less one
    when every true value is on the grid.

    The counts come per agent, in closed form, from its sparse demand
    entries.  Absolute reports come only with the default grid, which holds
    0 and 1, so an agent's true values are all on the grid when 1 is a
    multiplier or it demands nothing.  A demand d > 0 reports one value per distinct multiplier, plus with
    absolute reports the supply s when s > 0 and s / d is no multiplier.  An
    undemanded object reports 0, and with absolute reports also its supply,
    so all of an agent's undemanded objects together contribute one
    factor."""
    multipliers = set(grid)
    open_count = {
        b: (1 if multipliers else 0) + (1 if absolute and s != ZERO else 0)
        for b, s in ((b, instance.supply[b]) for b in instance.objects)
    }
    open_counts = Counter(open_count.values())
    entries: dict[str, list] = {a: [] for a in instance.agents}
    for (a, b), d in instance.demand.items():
        entries[a].append((b, d))
    factors = {}
    for a, own in entries.items():
        factor = 1
        undemanded = open_counts.copy()
        for b, d in own:
            s = instance.supply[b]
            factor *= len(multipliers) + (absolute and s != ZERO and s / d not in multipliers)
            undemanded[open_count[b]] -= 1
        for count, objects in undemanded.items():
            factor *= count ** objects
        # An empty value list leaves no misreport, the identity included.
        factors[a] = (factor, (ONE in multipliers or not own) and factor > 0)
    space = 0
    for coalition in itertools.combinations(instance.agents, coalition_size):
        product, identity = 1, True
        for a in coalition:
            product *= factors[a][0]
            identity = identity and factors[a][1]
        space += product - identity
    return space


class _ScaledRuns:
    """The ``lmmf`` runs of one search, truthful and misreported, on the
    truthful instance scaled once.

    Supplies and demands are scaled by X, the lcm of their denominators times
    the lcm of the grid's, so every value the grid can report (0, a supply, or
    a multiple of a demand) is an int; endowments by E, the lcm of theirs.  A
    run caps each object's supply by its total demand and runs the solver's
    split tree and final flow on that int view, with every self-check.  The
    truthful run takes the instance's own demands: its view is a positive
    multiple of ``lexicographic_allocation``'s, so its utilities are the
    mechanism's.  A misreport run adds the coalition's nonzero reported ints
    to the other agents' entries.  The truthful instance is validated once,
    and every reported value is 0, one of its supplies or a nonnegative
    multiple of one of its demands, so each reported instance is valid by
    construction and no run validates it.

    A run's utilities are ints over the unit X x L, for its rate unit L, so
    runs compare with the truthful baseline by cross-multiplication, and a
    ``Rational`` is built only for a candidate counterexample.
    """

    def __init__(self, instance: Instance, grid):
        self.instance = instance
        self.scale = _common_denominator(
            [*instance.supply.values(), *instance.demand.values()]
        ) * _common_denominator(grid)
        self.supply = _as_ints({b: instance.supply[b] for b in instance.objects}, self.scale)
        self.demand = _as_ints(instance.demand, self.scale)
        self.endowment_scale = _common_denominator(instance.endowment.values())
        self.endowment = _as_ints(instance.endowment, self.endowment_scale)
        self.baseline, self.baseline_unit = self.truthful()

    def as_int(self, value: Rational) -> int:
        """A value in instance units, times X."""
        return int(value.numerator) * (self.scale // int(value.denominator))

    def _solve(self, demand: Mapping, totals: Mapping) -> tuple[list, dict, int]:
        """The tiers and nonzero flows of the view with these int demands and
        their per-object totals, and X x L, the unit of both, for the tiers'
        rate unit L."""
        capped = {b: min(s, totals.get(b, 0)) for b, s in self.supply.items()}
        try:
            tiers, unit = _split_tree(self.instance.agents, capped, demand, self.endowment)
            flows = _final_flow(self.instance.agents, capped, demand, self.endowment, tiers, unit)
        except ValueError as exc:
            raise InternalCheckError(f"solver raised ValueError on valid input: {exc}") from exc
        return tiers, flows, self.scale * unit

    def truthful(self) -> tuple[dict[str, int], int]:
        """Every agent's truthful utility, as an int over the returned unit.
        A demand edge's flow never exceeds its demand, so a utility is the
        sum of the agent's flows."""
        _, flows, unit = self._solve(self.demand, object_totals(self.demand))
        utilities = dict.fromkeys(self.instance.agents, 0)
        for (a, _), f in flows.items():
            utilities[a] += f
        return utilities, unit

    def runner(self, coalition: Sequence[str], pairs: Sequence, truth: Sequence[Rational]):
        """The run function for one coalition, over the other agents' int
        entries and their per-object totals, fixed once.  A run takes the
        coalition's reported ints, one per entry of ``pairs``, and returns the
        counterexample they make, or None.

        The members' true utilities are compared with the baseline as ints.
        Only a run in which some member strictly gains and none loses becomes
        a ``ManipulationReport``; it is a counterexample if the run passes
        ``structure_check`` and the gain survives every allocation the
        reported instance admits (``_true_utility_floor``).
        """
        others = {k: d for k, d in self.demand.items() if k[0] not in coalition}
        other_totals = object_totals(others)
        true_entries: dict[str, list] = {a: [] for a in coalition}
        for k, d in self.demand.items():
            if k[0] in true_entries:
                true_entries[k[0]].append((k, d))
        members = [(own, self.baseline[a]) for a, own in true_entries.items()]
        scale, baseline_unit = self.scale, self.baseline_unit

        def run(combo: Sequence[int]) -> Optional[ManipulationReport]:
            demand = dict(others)
            totals = dict(other_totals)
            for k, d in zip(pairs, combo):
                if d:
                    demand[k] = d
                    totals[k[1]] = totals.get(k[1], 0) + d
            solved = self._solve(demand, totals)
            _, flows, unit = solved
            flow_scale = unit // scale
            misreport = []
            gain = False
            for own, base in members:
                u = sum(min(flows.get(k, 0), d * flow_scale) for k, d in own)
                lhs, rhs = u * baseline_unit, base * unit
                if lhs < rhs:
                    return None
                gain = gain or lhs > rhs
                misreport.append(u)
            if not gain:
                return None
            return self._candidate(coalition, pairs, truth, combo, misreport, solved)

        return run

    def _candidate(self, coalition, pairs, truth, combo, misreport, solved):
        """The report of a run in which some member gains and none loses, if
        it survives ``structure_check`` and the floors; otherwise None.
        ``combo`` holds the reported ints and ``misreport`` the members'
        utilities over the run's unit."""
        instance = self.instance
        tiers, flows, unit = solved
        reported_entries = {k: Rational(d, self.scale) for k, d in zip(pairs, combo)}
        truthful = {a: Rational(self.baseline[a], self.baseline_unit) for a in coalition}
        report = ManipulationReport(
            coalition=coalition,
            true_demands=dict(zip(pairs, truth)),
            reported_demands=reported_entries,
            truthful_utilities=truthful,
            misreport_utilities={a: Rational(u, unit) for a, u in zip(coalition, misreport)},
        )
        allocation = Allocation({k: Rational(f, unit) for k, f in flows.items()})
        profile = _profile(tiers, unit, self.endowment_scale)
        reported = _reported_instance(instance, coalition, reported_entries)
        verdict = structure_check(reported, allocation, profile)
        if not verdict.passed:
            raise InternalCheckError(
                f"misreport run violated its own structure: {verdict.witness}"
            )
        floors = {a: _true_utility_floor(instance, reported, profile, a) for a in coalition}
        robust_win = any(floors[a] > truthful[a] for a in coalition)
        no_robust_loss = all(floors[a] >= truthful[a] for a in coalition)
        return report if robust_win and no_robust_loss else None


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
    candidate hit is only reported if the gain survives for every allocation
    the reported instance admits (tie-breaking could otherwise fake a gain);
    the search stops, marked truncated, once ``budget`` mechanism runs are
    spent.  A misreport the reference rule cannot allocate is skipped and
    counted; a truthful instance it cannot allocate raises
    ``GridInfeasibleError``.

    The main mechanism validates the instance once, raising
    ``InvalidInstanceError`` before any run.  Its truthful run and every
    misreport run then share one int view of the instance (see
    ``_ScaledRuns``): each reported instance is valid by construction, so no
    run validates or rescales it, utilities are compared as ints, and the
    ``Rational`` utilities, the ``ManipulationReport``, the reported
    ``Instance`` and its ``Allocation`` are built only for a run in which
    some member gains and none loses.  Every solver self-check still runs on
    every run, and a ``ValueError`` from any of its runs, truthful or
    misreported, is a solver bug raised as ``InternalCheckError``.  Each
    coalition's report grid is built once, when the search reaches it, and
    ``space`` is counted from the sparse demand entries.
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

    if mechanism == "lmmf":
        _require_valid(instance)
        scaled = _ScaledRuns(instance, grid)
    elif mechanism == "mmf-si":
        try:
            truthful_alloc, _ = oracle_mmf_si(instance)
        except GridInfeasibleError as exc:
            raise GridInfeasibleError(
                "the truthful instance lies outside the mmf-si reference rule's domain"
                " (at most 3 agents and 2 objects, and a full-entitlement allocation"
                f" on the {GRID_RESOLUTION} grid): {exc}"
            ) from exc
        baseline = utilities(instance, truthful_alloc)
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    space = _search_space(instance, coalition_size, grid, absolute)

    runs = 0
    skipped = 0
    for coalition in itertools.combinations(instance.agents, coalition_size):
        pairs = [(a, b) for a in coalition for b in instance.objects]
        truth = tuple(instance.demand_between(*p) for p in pairs)
        value_lists = [
            _entry_values(t, instance.supply[b], grid, absolute) for t, (_, b) in zip(truth, pairs)
        ]
        identity = truth
        if mechanism == "lmmf":
            # The lmmf grid holds ints in the view's units.
            value_lists = [[scaled.as_int(v) for v in values] for values in value_lists]
            identity = tuple(scaled.as_int(t) for t in truth)
            run = scaled.runner(coalition, pairs, truth)
        for combo in itertools.product(*value_lists):
            if combo == identity:
                continue
            if runs >= budget:
                return SearchResult(
                    counterexample=None, runs=runs, space=space, truncated=True,
                    skipped=skipped,
                )
            runs += 1
            if mechanism == "lmmf":
                report = run(combo)
            else:
                reported_entries = dict(zip(pairs, combo))
                try:
                    misreport_alloc, _ = oracle_mmf_si(
                        _reported_instance(instance, coalition, reported_entries)
                    )
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
            if report is not None and report.is_counterexample:
                return SearchResult(
                    counterexample=report, runs=runs, space=space, truncated=False,
                    skipped=skipped,
                )
    return SearchResult(
        counterexample=None, runs=runs, space=space, truncated=False, skipped=skipped
    )
