"""Independent brute-force references for validating the main solver.

Nothing here shares logic with the flow-based solver: the breakpoint oracle
finds each tier's rate by enumerating all agent subsets, the sampler draws
arbitrary feasible demand-capped allocations, and the tiny maximin-with-full-
entitlements rule is the reference that shows, on one three-agent instance,
that such a rule is manipulable while the main mechanism is not.  The only
thing taken from the solver's module is the ``BreakpointProfile`` type.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from .core import (
    Allocation,
    Instance,
    InvalidInstanceError,
    capped_supply,
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
    every minimizing subset.  Exponential in the number of agents; refuses
    more than ``MAX_ORACLE_AGENTS``.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError("; ".join(violations))
    if len(instance.agents) > MAX_ORACLE_AGENTS:
        raise ValueError(
            f"subset enumeration handles at most {MAX_ORACLE_AGENTS} agents,"
            f" got {len(instance.agents)}"
        )
    capped = capped_supply(instance)
    remaining = list(instance.agents)
    caps = dict(capped)
    fixed: set = set()
    exhausted: set = set()
    lambdas = []
    agent_tiers = []
    object_tiers = []
    per_agent = {}
    while remaining:
        active = [b for b in instance.objects if b not in exhausted]
        n = len(remaining)
        # Subset sums built mask-by-mask from the submask with the lowest bit
        # cleared, so each of the 2^n rows costs O(|objects|).
        demand_rows = [ZERO] * (1 << n)
        endow_rows = [ZERO] * (1 << n)
        object_sums = [[ZERO] * (1 << n) for _ in active]
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            sub = mask & (mask - 1)
            agent = remaining[low]
            endow_rows[mask] = endow_rows[sub] + instance.endowment[agent]
            for j, b in enumerate(active):
                object_sums[j][mask] = object_sums[j][sub] + instance.demand_between(agent, b)
        best: Optional[Rational] = None
        union: set = set()
        for mask in range(1, 1 << n):
            cap_sum = ZERO
            for j, b in enumerate(active):
                cap_sum += min(caps[b], object_sums[j][mask])
            ratio = cap_sum / endow_rows[mask]
            if best is None or ratio < best:
                best = ratio
                union = {remaining[i] for i in range(n) if mask >> i & 1}
            elif ratio == best:
                union |= {remaining[i] for i in range(n) if mask >> i & 1}
        tier = union
        newly = {
            b for b in active
            if sum((instance.demand_between(a, b) for a in tier), ZERO) > caps[b]
        }
        fixed |= tier
        exhausted |= newly
        lambdas.append(best)
        agent_tiers.append(frozenset(tier))
        object_tiers.append(frozenset(newly))
        for a in tier:
            per_agent[a] = best
        remaining = [a for a in remaining if a not in tier]
        for b in instance.objects:
            if b not in exhausted:
                caps[b] = capped[b] - sum((instance.demand_between(a, b) for a in fixed), ZERO)
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

