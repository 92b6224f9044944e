"""Instance model for divisible-object allocation with per-agent demand caps.

An instance consists of weighted agents (each with a strictly positive
endowment), objects with nonnegative supplies, and a sparse nonnegative demand
matrix.  An allocation hands out object amounts; the utility an agent draws
from an object is capped by its demand for that object.  This module holds the
value types plus the derived quantities the solver and the property checkers
share: per-object demand sums, effective (demand-capped) supply, utilities,
and residual sub-instances.  Every derived quantity loops over the sparse
demand or allocation entries, never over all agent/object pairs.

All quantities are exact rationals (`rational.Rational`); every comparison in
the package is exact equality, never approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Optional

from .rational import Rational, ZERO


class InvalidInstanceError(ValueError):
    """Raised when an operation requires a valid instance and gets a broken one."""


class InternalCheckError(AssertionError):
    """Raised when a solver self-check fails; always a bug, never a valid outcome."""


@dataclass(frozen=True)
class Instance:
    """Agents, objects, endowments, supplies, and the sparse demand matrix.

    Agent and object ids are opaque strings; the given order is the canonical
    order for all deterministic output.  Zero demand entries are dropped on
    construction, so ``demand`` only holds nonzero entries; use
    :meth:`demand_between` for the dense view.
    """

    agents: tuple[str, ...]
    endowment: Mapping[str, Rational]
    objects: tuple[str, ...]
    supply: Mapping[str, Rational]
    demand: Mapping[tuple[str, str], Rational]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(
            self, "endowment", {a: Rational(v) for a, v in self.endowment.items()}
        )
        object.__setattr__(
            self, "supply", {b: Rational(v) for b, v in self.supply.items()}
        )
        demand = {}
        for (a, b), v in self.demand.items():
            v = Rational(v)
            if v != ZERO:
                demand[(a, b)] = v
        object.__setattr__(self, "demand", demand)

    def demand_between(self, agent: str, obj: str) -> Rational:
        return self.demand.get((agent, obj), ZERO)


@dataclass(frozen=True)
class Allocation:
    """Sparse map (agent, object) -> amount received.  Absent means zero.

    An amount that is already a ``Rational`` is kept as given; any other,
    such as an int, is converted.  Negative amounts are rejected and zero
    amounts dropped."""

    amount: Mapping[tuple[str, str], Rational]

    def __post_init__(self):
        amount = {}
        for key, v in self.amount.items():
            if not isinstance(v, Rational):
                v = Rational(v)
            if v < ZERO:
                raise ValueError(f"negative allocation amount for {key}: {v}")
            if v != ZERO:
                amount[key] = v
        object.__setattr__(self, "amount", amount)

    def amount_of(self, agent: str, obj: str) -> Rational:
        return self.amount.get((agent, obj), ZERO)


@dataclass(frozen=True)
class UtilityVector:
    """Per-agent utilities plus the sorted normalized view used for fairness.

    ``entries`` is (agent id, utility, utility / endowment) in instance agent
    order; ``sorted_normalized`` is the normalized values in nondecreasing
    order, which is the object all leximin/Lorenz comparisons run on.
    """

    entries: tuple[tuple[str, Rational, Rational], ...]
    sorted_normalized: tuple[Rational, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "sorted_normalized",
            tuple(sorted(norm for _, _, norm in self.entries)),
        )

    def __len__(self) -> int:
        return len(self.entries)


def validate_instance(instance: Instance) -> list[str]:
    """Return every invariant violation as a message; empty list iff valid."""
    violations = []
    seen = set()
    for a in instance.agents:
        if a in seen:
            violations.append(f"duplicate agent id {a!r}")
        seen.add(a)
    seen = set()
    for b in instance.objects:
        if b in seen:
            violations.append(f"duplicate object id {b!r}")
        seen.add(b)
    for a in instance.agents:
        e = instance.endowment.get(a)
        if e is None:
            violations.append(f"agent {a!r} has no endowment")
        elif e <= ZERO:
            violations.append(f"endowment must be strictly positive: agent {a!r} has {e}")
    for b in instance.objects:
        s = instance.supply.get(b)
        if s is None:
            violations.append(f"object {b!r} has no supply")
        elif s < ZERO:
            violations.append(f"supply must be nonnegative: object {b!r} has {s}")
    agent_set = set(instance.agents)
    object_set = set(instance.objects)
    for (a, b), v in instance.demand.items():
        if a not in agent_set:
            violations.append(f"demand entry references unknown agent {a!r}")
        if b not in object_set:
            violations.append(f"demand entry references unknown object {b!r}")
        if v < ZERO:
            violations.append(f"demand must be nonnegative: ({a!r}, {b!r}) has {v}")
    return violations


def object_totals(
    entries: Mapping[tuple[str, str], Rational], agents: Optional[Container[str]] = None
) -> dict[str, Rational]:
    """Per object, the total of sparse (agent, object) entries such as demands
    or allocated amounts: of the given agents, or of every agent when
    ``agents`` is None.  Objects without an entry are absent.  Each total
    starts from the int 0, so it keeps the entries' type: int entries give
    int totals."""
    totals: dict[str, Rational] = {}
    for (a, b), v in entries.items():
        if agents is None or a in agents:
            totals[b] = totals.get(b, 0) + v
    return totals


def capped_supply(instance: Instance) -> dict[str, Rational]:
    """Effective supply per object: raw supply capped by total demand.

    Supply beyond what all agents together demand can never be consumed, so
    every flow computation and capacity bound uses this cap.
    """
    totals = object_totals(instance.demand, set(instance.agents))
    return {b: min(instance.supply[b], totals.get(b, ZERO)) for b in instance.objects}


def utilities(instance: Instance, allocation: Allocation) -> dict[str, Rational]:
    """Every agent's utility (per object, the received amount capped by
    demand), in instance agent order, from one pass over the allocation
    entries: an entry off the demand support is worth nothing."""
    totals = dict.fromkeys(instance.agents, ZERO)
    for key, x in allocation.amount.items():
        d = instance.demand.get(key)
        if d is not None and key[0] in totals:
            totals[key[0]] += min(x, d)
    return totals


def utility_vector(instance: Instance, allocation: Allocation) -> UtilityVector:
    own = utilities(instance, allocation)
    return UtilityVector(tuple((a, u, u / instance.endowment[a]) for a, u in own.items()))


def sub_instance(instance: Instance, allocation: Allocation, removed: Iterable[str]) -> Instance:
    """Residual instance after removing some agents along with their allocation.

    Remaining agents keep endowments and demands; each object's supply is
    reduced by what the removed agents received.  Rejects allocations that
    hand out more of an object than its supply (negative residual).
    """
    removed = set(removed)
    if not removed <= set(instance.agents):
        raise ValueError(f"unknown agents in removal set: {sorted(removed - set(instance.agents))}")
    taken = object_totals(allocation.amount, removed)
    residual = {}
    for b in instance.objects:
        left = instance.supply[b] - taken.get(b, ZERO)
        if left < ZERO:
            raise ValueError(
                f"allocation infeasible: object {b!r} over-allocated by {-left}"
            )
        residual[b] = left
    keep = [a for a in instance.agents if a not in removed]
    return Instance(
        agents=tuple(keep),
        endowment={a: instance.endowment[a] for a in keep},
        objects=instance.objects,
        supply=residual,
        demand={(a, b): v for (a, b), v in instance.demand.items() if a not in removed},
    )
