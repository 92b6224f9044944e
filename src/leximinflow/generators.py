"""Instance generators: the named demonstration families and seeded random
instances.

The named families are small parametric instances with hand-checkable
behavior: one drives the mechanism's worst-case entitlement ratio toward 1/2,
one makes any maximin rule constrained by full entitlements manipulable, and
one has a lone large-demand agent among uniform busy agents.  The random
generator draws small-denominator rationals so every downstream comparison
stays exact and fast.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import Instance
from .rational import ONE, Rational


def si_bound_instance(n: int) -> Instance:
    """n unit-endowment agents, two objects of supply n; agent a1 demands one
    unit of each object, every other agent demands two units of the first
    object only.  The mechanism's worst entitlement ratio here is (1 + 1/n)/2.
    """
    if n < 2:
        raise ValueError(f"family needs n >= 2, got {n}")
    agents = tuple(f"a{i}" for i in range(1, n + 1))
    demand = {("a1", "b1"): ONE, ("a1", "b2"): ONE}
    for i in range(2, n + 1):
        demand[(f"a{i}", "b1")] = Rational(2)
    return Instance(
        agents=agents,
        endowment={a: ONE for a in agents},
        objects=("b1", "b2"),
        supply={"b1": Rational(n), "b2": Rational(n)},
        demand=demand,
    )


def si_misreport_instance() -> Instance:
    """Three unit-endowment agents, two objects of supply 6; a1 demands (3, 1),
    a2 and a3 each demand 3 units of the second object.  Under any maximin rule
    constrained to meet full entitlements, a1 gains by inflating its second
    demand to 2."""
    agents = ("a1", "a2", "a3")
    return Instance(
        agents=agents,
        endowment={a: ONE for a in agents},
        objects=("b1", "b2"),
        supply={"b1": Rational(6), "b2": Rational(6)},
        demand={
            ("a1", "b1"): Rational(3),
            ("a1", "b2"): ONE,
            ("a2", "b2"): Rational(3),
            ("a3", "b2"): Rational(3),
        },
    )


def burst_demand_instance(n: int) -> Instance:
    """n unit-endowment agents and n objects of supply n; agent a1 demands n
    units of the first object only, every other agent demands 2 units of every
    object.  The mechanism gives every agent utility n."""
    if n < 2:
        raise ValueError(f"family needs n >= 2, got {n}")
    agents = tuple(f"a{i}" for i in range(1, n + 1))
    objects = tuple(f"b{j}" for j in range(1, n + 1))
    demand = {("a1", "b1"): Rational(n)}
    for i in range(2, n + 1):
        for b in objects:
            demand[(f"a{i}", b)] = Rational(2)
    return Instance(
        agents=agents,
        endowment={a: ONE for a in agents},
        objects=objects,
        supply={b: Rational(n) for b in objects},
        demand=demand,
    )


def _small_rational(rng: random.Random, lowest: int) -> Rational:
    return Rational(rng.randint(lowest, 12), rng.randint(1, 8))


def random_instance(
    seed: int,
    num_agents: Optional[int] = None,
    num_objects: Optional[int] = None,
    density: Optional[float] = None,
    equal_endowments: bool = False,
) -> Instance:
    """Seeded random instance with small-denominator rational data.

    Size and density default to small draws (at most 8 agents, 6 objects)
    matching the regime the brute-force oracles can check.  Every number is
    n/d with n at most 12 and d at most 8.  The same seed and parameters
    always produce the identical instance.  With ``equal_endowments`` every
    agent shares one random endowment; sorted normalized utility vectors of
    different allocations are then comparable prefix-by-prefix, which the
    plain Lorenz-dominance check requires.
    """
    rng = random.Random(seed)
    if num_agents is None:
        num_agents = rng.randint(1, 8)
    if num_objects is None:
        num_objects = rng.randint(1, 6)
    if density is None:
        density = rng.uniform(0.3, 0.9)
    if num_agents < 1 or num_objects < 1:
        raise ValueError("need at least one agent and one object")
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    agents = tuple(f"a{i}" for i in range(1, num_agents + 1))
    objects = tuple(f"b{j}" for j in range(1, num_objects + 1))
    if equal_endowments:
        shared = _small_rational(rng, 1)
        endowment = {a: shared for a in agents}
    else:
        endowment = {a: _small_rational(rng, 1) for a in agents}
    supply = {b: _small_rational(rng, 0) for b in objects}
    demand = {}
    for a in agents:
        for b in objects:
            if rng.random() < density:
                demand[(a, b)] = _small_rational(rng, 1)
    return Instance(
        agents=agents, endowment=endowment, objects=objects, supply=supply, demand=demand
    )
