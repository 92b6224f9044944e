"""Cross-instance mechanism checks: monotonicity, substructure, manipulation.

Each check perturbs or restricts an instance, reruns the mechanism or the
oracle, and compares exact utilities: supply increases must never hurt
anyone, endowment shrinks and departures must never hurt the unchanged
agents, restrictions of an audited allocation must stay optimal for the
residual instance, and no small coalition should profit from misreporting
demands.  The manipulation search enumerates a finite misreport grid, so
absence of a counterexample is evidence within the declared coverage, not a
proof.
"""

from __future__ import annotations

import itertools
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
from .leximin import BreakpointProfile, lexicographic_allocation, structure_check
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


def _run_mechanism(instance: Instance, mechanism: str):
    if mechanism == "lmmf":
        return lexicographic_allocation(instance)
    if mechanism == "mmf-si":
        allocation, _ = oracle_mmf_si(instance)
        return allocation, None
    raise ValueError(f"unknown mechanism {mechanism!r}")


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
    own_tier_objects = profile.new_objects(i)
    outside = [b for b in reported.objects if b not in profile.object_tiers[i]]
    floor = ZERO
    budget = reported.endowment[agent] * profile.per_agent[agent]
    for b in outside:
        d_rep = reported.demand_between(agent, b)
        floor += min(d_rep, instance.demand_between(agent, b))
        budget -= d_rep
    headroom = ZERO
    for b in own_tier_objects:
        d_rep = reported.demand_between(agent, b)
        headroom += d_rep - min(d_rep, instance.demand_between(agent, b))
    if budget > headroom:
        floor += budget - headroom
    return floor


def _entry_values(instance: Instance, pair: tuple[str, str], grid, absolute: bool):
    a, b = pair
    true_value = instance.demand_between(a, b)
    values = {m * true_value for m in grid}
    if absolute:
        values |= {ZERO, instance.supply[b]}
    return sorted(values)


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
    """
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

    try:
        truthful_alloc, _ = _run_mechanism(instance, mechanism)
    except GridInfeasibleError as exc:
        raise GridInfeasibleError(
            "the truthful instance lies outside the mmf-si reference rule's domain"
            " (at most 3 agents and 2 objects, and a full-entitlement allocation"
            f" on the {GRID_RESOLUTION} grid): {exc}"
        ) from exc
    baseline = utilities(instance, truthful_alloc)

    # Per coalition: its entries, their true values and their report grids.
    searches = []
    space = 0
    for coalition in itertools.combinations(instance.agents, coalition_size):
        pairs = [(a, b) for a in coalition for b in instance.objects]
        truth = tuple(instance.demand_between(*p) for p in pairs)
        value_lists = [_entry_values(instance, p, grid, absolute) for p in pairs]
        coalition_space = 1
        for values in value_lists:
            coalition_space *= len(values)
        if all(t in values for t, values in zip(truth, value_lists)):
            coalition_space -= 1
        space += coalition_space
        searches.append((coalition, pairs, truth, value_lists))
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
                    **{
                        k: v
                        for k, v in instance.demand.items()
                        if k[0] not in coalition
                    },
                    **reported_entries,
                },
            )
            try:
                misreport_alloc, misreport_profile = _run_mechanism(reported, mechanism)
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
                    a: _true_utility_floor(instance, reported, misreport_profile, a)
                    for a in coalition
                }
                robust_win = any(floors[a] > baseline[a] for a in coalition)
                no_robust_loss = all(floors[a] >= baseline[a] for a in coalition)
                if not (robust_win and no_robust_loss):
                    continue
            return SearchResult(
                counterexample=report, runs=runs, space=space, truncated=truncated,
                skipped=skipped,
            )
        if truncated:
            break
    return SearchResult(
        counterexample=None, runs=runs, space=space, truncated=truncated, skipped=skipped
    )
