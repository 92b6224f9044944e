"""Per-allocation fairness and efficiency checkers, all with exact arithmetic.

Each checker re-derives its quantity from the instance and allocation alone —
none of them trusts the solver's bookkeeping — and returns either a passing
report or a concrete witness (the ids involved and both sides of the violated
inequality).  Comparisons between utility vectors (leximin order, Lorenz
dominance) operate on the sorted endowment-normalized values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Allocation, Instance, UtilityVector, utility
from .leximin import breakpoints
from .rational import Rational, ZERO
from .reporting import PropertyReport, Witness, failing, passing

__all__ = [
    "PropertyReport",
    "Witness",
    "SiReport",
    "is_frugal",
    "is_nw",
    "envy_report",
    "si_ratio",
    "lorenz_dominates",
    "leximin_cmp",
    "mmf_value",
]


def is_frugal(instance: Instance, allocation: Allocation) -> PropertyReport:
    """No agent receives more of an object than it demands."""
    for (a, b), amount in sorted(allocation.amount.items()):
        d = instance.demand_between(a, b)
        if amount > d:
            return failing("frugal", (a, b), amount, d, note="amount exceeds demand")
    return passing("frugal")


def is_nw(instance: Instance, allocation: Allocation) -> PropertyReport:
    """Non-wastefulness: every object is fully handed out, or every agent's
    demand for it is met.  Defined on frugal allocations only."""
    frugal = is_frugal(instance, allocation)
    if not frugal.passed:
        raise ValueError(f"non-wasteful is defined on frugal allocations: {frugal.witness}")
    for b in instance.objects:
        if allocation.object_total(b) == instance.supply[b]:
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


def envy_report(instance: Instance, allocation: Allocation) -> PropertyReport:
    """Envy-freeness: no agent prefers another's bundle scaled by the
    endowment ratio, valued through its own demand caps."""
    for a in instance.agents:
        own = utility(allocation, instance, a)
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


@dataclass(frozen=True)
class SiReport:
    """Worst-case share-of-own-entitlement ratio, with the per-agent table.

    An agent's entitlement is the utility of owning its endowment share of
    every object outright.  ``ratio`` is the minimum of utility/entitlement
    over agents with positive entitlement; ``None`` means every entitlement is
    zero, so the guarantee is vacuous.
    """

    ratio: Optional[Rational]
    table: tuple[tuple[str, Rational, Rational], ...]


def si_ratio(instance: Instance, allocation: Allocation) -> SiReport:
    total_e = ZERO
    for a in instance.agents:
        total_e += instance.endowment[a]
    rows = []
    worst: Optional[Rational] = None
    for a in instance.agents:
        share = instance.endowment[a] / total_e
        entitlement = ZERO
        for b in instance.objects:
            entitlement += min(share * instance.supply[b], instance.demand_between(a, b))
        u = utility(allocation, instance, a)
        rows.append((a, u, entitlement))
        if entitlement > ZERO:
            ratio = u / entitlement
            if worst is None or ratio < worst:
                worst = ratio
    return SiReport(ratio=worst, table=tuple(rows))


def lorenz_dominates(v: UtilityVector, w: UtilityVector) -> bool:
    """True iff every prefix sum of v's sorted normalized values is at least
    the corresponding prefix sum of w's."""
    if len(v) != len(w):
        raise ValueError(f"vector lengths differ: {len(v)} vs {len(w)}")
    prefix_v = ZERO
    prefix_w = ZERO
    for x, y in zip(v.sorted_normalized, w.sorted_normalized):
        prefix_v += x
        prefix_w += y
        if prefix_v < prefix_w:
            return False
    return True


def leximin_cmp(v: UtilityVector, w: UtilityVector) -> int:
    """Lexicographic comparison of sorted normalized vectors: -1, 0, or 1."""
    if len(v) != len(w):
        raise ValueError(f"vector lengths differ: {len(v)} vs {len(w)}")
    for x, y in zip(v.sorted_normalized, w.sorted_normalized):
        if x < y:
            return -1
        if x > y:
            return 1
    return 0


def mmf_value(instance: Instance) -> Rational:
    """The best achievable minimum normalized utility: the first breakpoint rate."""
    if not instance.agents:
        raise ValueError("the minimum normalized utility needs at least one agent")
    return breakpoints(instance).lambdas[0]
