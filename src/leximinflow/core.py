"""Instance model for divisible-object allocation with per-agent demand caps.

An instance consists of weighted agents (each with a strictly positive
endowment), objects with nonnegative supplies, and a sparse nonnegative demand
matrix.  An allocation hands out object amounts; the utility an agent draws
from an object is capped by its demand for that object.  This module holds the
value types plus the derived quantities the solver and the property checkers
share: effective (demand-capped) supply, subset capacity, utilities, and
residual sub-instances.

All quantities are exact rationals (`rational.Rational`); every comparison in
the package is exact equality, never approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

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

    def group_demand(self, agents: Iterable[str], obj: str) -> Rational:
        """Total demand of a set of agents for one object."""
        total = ZERO
        for a in agents:
            total += self.demand.get((a, obj), ZERO)
        return total


@dataclass(frozen=True)
class Allocation:
    """Sparse map (agent, object) -> amount received.  Absent means zero."""

    amount: Mapping[tuple[str, str], Rational]

    def __post_init__(self):
        amount = {}
        for key, v in self.amount.items():
            v = Rational(v)
            if v < ZERO:
                raise ValueError(f"negative allocation amount for {key}: {v}")
            if v != ZERO:
                amount[key] = v
        object.__setattr__(self, "amount", amount)

    def amount_of(self, agent: str, obj: str) -> Rational:
        return self.amount.get((agent, obj), ZERO)

    def object_total(self, obj: str) -> Rational:
        """Total amount of one object handed out across all agents."""
        total = ZERO
        for (_, b), v in self.amount.items():
            if b == obj:
                total += v
        return total



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


def capped_supply(instance: Instance) -> dict[str, Rational]:
    """Effective supply per object: raw supply capped by total demand.

    Supply beyond what all agents together demand can never be consumed, so
    every flow computation and capacity bound uses this cap.
    """
    return {
        b: min(instance.supply[b], instance.group_demand(instance.agents, b))
        for b in instance.objects
    }


def capacity(instance: Instance, agent_subset: Iterable[str]) -> Rational:
    """Maximum total utility jointly reachable by a subset of agents.

    Per object, the subset can absorb at most its total demand and at most the
    effective supply; the capacity is the sum of those per-object bounds.
    """
    subset = set(agent_subset)
    if not subset <= set(instance.agents):
        raise ValueError(f"unknown agents in subset: {sorted(subset - set(instance.agents))}")
    capped = capped_supply(instance)
    total = ZERO
    for b in instance.objects:
        total += min(capped[b], instance.group_demand(subset, b))
    return total


def utility(allocation: Allocation, instance: Instance, agent: str) -> Rational:
    """Utility of one agent: per object, the received amount capped by demand."""
    if agent not in instance.endowment:
        raise KeyError(agent)
    total = ZERO
    for (a, b), d in instance.demand.items():
        if a == agent:
            total += min(allocation.amount_of(a, b), d)
    return total


def utility_vector(instance: Instance, allocation: Allocation) -> UtilityVector:
    entries = []
    for a in instance.agents:
        u = utility(allocation, instance, a)
        entries.append((a, u, u / instance.endowment[a]))
    return UtilityVector(tuple(entries))


def sub_instance(instance: Instance, allocation: Allocation, removed: Iterable[str]) -> Instance:
    """Residual instance after removing some agents along with their allocation.

    Remaining agents keep endowments and demands; each object's supply is
    reduced by what the removed agents received.  Rejects allocations that
    hand out more of an object than its supply (negative residual).
    """
    removed = set(removed)
    if not removed <= set(instance.agents):
        raise ValueError(f"unknown agents in removal set: {sorted(removed - set(instance.agents))}")
    residual = {}
    for b in instance.objects:
        taken = ZERO
        for a in removed:
            taken += allocation.amount_of(a, b)
        left = instance.supply[b] - taken
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
