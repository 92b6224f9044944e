"""Independent brute-force references for validating the main solver.

Nothing here shares logic with the flow-based solver: the breakpoint oracle
finds each tier's rate by enumerating all agent subsets, the sampler draws
arbitrary feasible demand-capped allocations, and the tiny maximin-with-full-
entitlements rule is the reference that shows, on one three-agent instance,
that such a rule is manipulable while the main mechanism is not.  The only
thing taken from the solver's module is the ``BreakpointProfile`` type.

The breakpoint oracle enumerates on Python ints.  It scales the instance
itself, once per call: supplies and demands by D, the lcm of their
denominators, and endowments by E, the lcm of theirs.  Subset sums, minima
and rate comparisons (by cross-multiplying) are all int operations, and each
tier builds one ``Rational`` for its rate.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional

from .core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    validate_instance,
)
from .leximin import BreakpointProfile
from .properties import si_ratio
from .rational import Rational, ZERO


GRID_RESOLUTION = Rational(1, 4)
MAX_ORACLE_AGENTS = 12  # subset enumeration takes 2^n rows per tier


class GridInfeasibleError(ValueError):
    """No grid allocation meets every agent's full entitlement."""


def oracle_breakpoints(instance: Instance) -> BreakpointProfile:
    """Tier structure by exhaustive subset enumeration.

    Per tier, the rate is the minimum of joint-capacity / joint-endowment over
    all nonempty subsets of the remaining agents, and the tier is the union of
    every minimizing subset.  The enumeration runs on ints: supplies and
    demands times D, the lcm of their denominators, and endowments times E,
    the lcm of theirs, so a subset's rate is the int pair (capacity,
    endowment), rates compare by cross-multiplying, and each tier builds one
    ``Rational``, capacity x E / (endowment x D).  Exponential in the number of
    agents; refuses more than ``MAX_ORACLE_AGENTS``.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError("; ".join(violations))
    if len(instance.agents) > MAX_ORACLE_AGENTS:
        raise ValueError(
            f"subset enumeration handles at most {MAX_ORACLE_AGENTS} agents,"
            f" got {len(instance.agents)}"
        )
    supply = [instance.supply[b] for b in instance.objects]
    endowment = [instance.endowment[a] for a in instance.agents]
    # int(): a gmpy2 numerator or denominator is an mpz.
    scale = math.lcm(*(int(v.denominator) for v in [*supply, *instance.demand.values()]))
    endowment_scale = math.lcm(*(int(v.denominator) for v in endowment))

    def as_int(v, by: int) -> int:
        return int(v.numerator) * (by // int(v.denominator))

    demand = {key: as_int(v, scale) for key, v in instance.demand.items()}
    totals = dict.fromkeys(instance.objects, 0)
    for (_, b), d in demand.items():
        totals[b] += d
    caps = {b: min(as_int(s, scale), totals[b]) for b, s in zip(instance.objects, supply)}
    endow = {a: as_int(e, endowment_scale) for a, e in zip(instance.agents, endowment)}
    remaining = list(instance.agents)
    exhausted: set = set()
    lambdas = []
    agent_tiers = []
    object_tiers = []
    per_agent = {}
    while remaining:
        active = [b for b in instance.objects if b not in exhausted]
        active_caps = [caps[b] for b in active]
        rows = [[demand.get((a, b), 0) for b in active] for a in remaining]
        agent_endow = [endow[a] for a in remaining]
        n = len(remaining)
        # Subset sums built mask-by-mask from the submask with the lowest bit
        # cleared, so each of the 2^n rows costs O(|objects|).
        object_sums = [[0] * len(active)] + [None] * ((1 << n) - 1)
        endow_rows = [0] * (1 << n)
        # (1, 0) stands for an infinite rate, which the first subset beats.
        best_c, best_e, union = 1, 0, 0
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            sub = mask & (mask - 1)
            object_sums[mask] = sums = [x + y for x, y in zip(object_sums[sub], rows[low])]
            endow_rows[mask] = e = endow_rows[sub] + agent_endow[low]
            c = sum(map(min, active_caps, sums))
            lhs, rhs = c * best_e, best_c * e
            if lhs < rhs:
                best_c, best_e, union = c, e, mask
            elif lhs == rhs:
                union |= mask
        rate = Rational(best_c * endowment_scale, best_e * scale)
        tier = frozenset(remaining[i] for i in range(n) if union >> i & 1)
        newly = set()
        for b, cap, used in zip(active, active_caps, object_sums[union]):
            if used > cap:
                newly.add(b)
            else:
                caps[b] = cap - used
        exhausted |= newly
        lambdas.append(rate)
        agent_tiers.append(tier)
        object_tiers.append(frozenset(newly))
        for a in tier:
            per_agent[a] = rate
        remaining = [a for a in remaining if a not in tier]
    return BreakpointProfile(
        lambdas=tuple(lambdas),
        agent_tiers=tuple(agent_tiers),
        object_tiers=tuple(object_tiers),
        per_agent=per_agent,
    )


def random_frugal_allocation(instance: Instance, seed: int) -> Allocation:
    """A feasible demand-capped allocation drawn at random.

    Visits the positive-demand pairs in seeded random order and hands each a
    random eighth-fraction of min(remaining supply, demand).  Every draw is
    frugal and supply-feasible by construction.
    """
    rng = random.Random(seed)
    pairs = sorted(instance.demand)
    rng.shuffle(pairs)
    remaining = dict(instance.supply)
    amounts = {}
    for a, b in pairs:
        ceiling = min(remaining[b], instance.demand[(a, b)])
        if ceiling <= ZERO:
            continue
        amount = Rational(rng.randint(0, 8), 8) * ceiling
        if amount > ZERO:
            amounts[(a, b)] = amount
            remaining[b] -= amount
    return Allocation(amounts)


def oracle_mmf_si(instance: Instance) -> tuple[Allocation, Rational]:
    """Best minimum normalized utility among grid allocations that meet every
    agent's full entitlement (its endowment share of each object, demand-
    capped).

    Exhaustive over per-object splits in steps of ``GRID_RESOLUTION``, so it is
    restricted to at most 3 agents and 2 objects.  Returns the first argmax in
    enumeration order.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError("; ".join(violations))
    if len(instance.agents) > 3 or len(instance.objects) > 2:
        raise ValueError("grid search handles at most 3 agents and 2 objects")
    if not instance.agents:
        raise ValueError("needs at least one agent")

    def splits_of(obj: str) -> list[tuple[Rational, ...]]:
        per_agent_steps = []
        for a in instance.agents:
            ceiling = min(instance.demand_between(a, obj), instance.supply[obj])
            steps = int(ceiling / GRID_RESOLUTION)  # floor for rationals >= 0
            per_agent_steps.append([GRID_RESOLUTION * k for k in range(steps + 1)])
        out = []
        for combo in itertools.product(*per_agent_steps):
            if sum(combo, ZERO) <= instance.supply[obj]:
                out.append(combo)
        return out

    best_alloc: Optional[Allocation] = None
    best_min: Optional[Rational] = None
    for assignment in itertools.product(*(splits_of(b) for b in instance.objects)):
        amounts = {}
        for j, b in enumerate(instance.objects):
            for i, a in enumerate(instance.agents):
                if assignment[j][i] > ZERO:
                    amounts[(a, b)] = assignment[j][i]
        allocation = Allocation(amounts)
        entitlement = si_ratio(instance, allocation)
        if entitlement.ratio is not None and entitlement.ratio < 1:
            continue
        worst = min(u / instance.endowment[a] for a, u, _ in entitlement.table)
        if best_min is None or worst > best_min:
            best_min = worst
            best_alloc = allocation
    if best_alloc is None:
        raise GridInfeasibleError(
            f"no allocation meets every full entitlement at resolution {GRID_RESOLUTION}"
        )
    return best_alloc, best_min

