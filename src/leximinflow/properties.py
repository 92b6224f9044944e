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

from .core import Allocation, Instance, UtilityVector, object_totals, utilities
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
    demand for it is met.  Defined on frugal allocations only, so a frugality
    violation fails it too.

    On a frugal allocation only a demander can fall short, so only the
    demand entries of unexhausted objects are checked; the witness is the
    first shortfall in instance object order, then agent order.
    """
    frugal = is_frugal(instance, allocation)
    if not frugal.passed:
        w = frugal.witness
        return failing(
            "non-wasteful", w.subject, w.lhs, w.rhs, note="defined on frugal allocations only"
        )
    handed_out = object_totals(allocation.amount)
    open_rank = {
        b: r for r, b in enumerate(instance.objects)
        if handed_out.get(b, ZERO) != instance.supply[b]
    }
    agent_rank = {a: r for r, a in enumerate(instance.agents)}
    short = [
        (open_rank[b], agent_rank[a], a, b)
        for (a, b), d in instance.demand.items()
        if b in open_rank and allocation.amount_of(a, b) != d
    ]
    if short:
        *_, a, b = min(short)
        return failing(
            "non-wasteful", (a, b), allocation.amount_of(a, b), instance.demand[(a, b)],
            note="object not exhausted yet demand unmet",
        )
    return passing("non-wasteful")


def envy_report(instance: Instance, allocation: Allocation) -> PropertyReport:
    """Envy-freeness: no agent prefers another's bundle scaled by the
    endowment ratio, valued through its own demand caps.

    The envier's valuation runs over its own demand entries only: elsewhere
    its cap is 0 and min(amount, 0) = 0 for every amount >= 0.  So an envier
    meets only the holders of the objects it demands; any other agent's
    bundle is worth 0 to it, which cannot exceed its own utility.

    Bundles are valued per unit of the envier's endowment: a holder o's
    amount x of an object the envier a demands d of is worth
    min(x e_a / e_o, d) = e_a min(x / e_o, d / e_a).  So x / e_o is taken
    once per allocation entry, d / e_a once per demand entry, and the sum
    is compared with own / e_a.  The witness, the first envious pair in
    instance agent order, reports e_a times the sum, which is exact.
    """
    own = utilities(instance, allocation)
    endowment = instance.endowment
    entries: dict[str, list] = {a: [] for a in instance.agents}
    for (a, b), d in instance.demand.items():
        entries[a].append((b, d / endowment[a]))
    rank = {a: r for r, a in enumerate(instance.agents)}
    # Holders by object; an entry of an agent outside the instance is
    # nobody's bundle, as in ``utilities``.
    holders: dict[str, list] = {}
    for (other, b), x in allocation.amount.items():
        if other in rank:
            holders.setdefault(b, []).append((other, x / endowment[other]))
    for a in instance.agents:
        envied: dict[str, Rational] = {}
        for b, cap in entries[a]:
            for other, share in holders.get(b, ()):
                if other != a:
                    envied[other] = envied.get(other, ZERO) + min(share, cap)
        bound = own[a] / endowment[a]
        for other in sorted(envied, key=rank.__getitem__):
            if bound < envied[other]:
                return failing(
                    "envy-free", (a, other), own[a], endowment[a] * envied[other],
                    note="agent prefers the other's scaled bundle",
                )
    return passing("envy-free")


@dataclass(frozen=True)
class SiReport:
    """Worst-case share-of-own-entitlement ratio, with the per-agent table.

    An agent's entitlement is the utility of owning its endowment share of
    every object outright.  ``ratio`` is the minimum of utility/entitlement
    over agents with positive entitlement, and ``worst`` the table row of the
    first agent that attains it; both are ``None`` when every entitlement is
    zero, so the guarantee is vacuous.
    """

    ratio: Optional[Rational]
    table: tuple[tuple[str, Rational, Rational], ...]
    worst: Optional[tuple[str, Rational, Rational]]


def si_ratio(instance: Instance, allocation: Allocation) -> SiReport:
    total_e = ZERO
    for a in instance.agents:
        total_e += instance.endowment[a]
    share = {a: instance.endowment[a] / total_e for a in instance.agents}
    # Off the agent's demand entries its cap is 0, and min(supply share, 0) = 0.
    entitlements = dict.fromkeys(instance.agents, ZERO)
    for (a, b), d in instance.demand.items():
        entitlements[a] += min(share[a] * instance.supply[b], d)
    rows = tuple((a, u, entitlements[a]) for a, u in utilities(instance, allocation).items())
    # ``min`` keeps the first of equal rows, so ties go to the earliest agent.
    positive = [row for row in rows if row[2] > ZERO]
    worst = min(positive, key=lambda row: row[1] / row[2], default=None)
    ratio = None if worst is None else worst[1] / worst[2]
    return SiReport(ratio=ratio, table=rows, worst=worst)


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

