"""Workload definitions: instance pools and the CLI operations run on them.

Every workload draws its instances from a fixed pool, so that the expected
outputs recorded in ``expected.json`` hold for any ``--seed``.  The seed
permutes the agent and object order of every pool instance file and the
order in which a pass visits the pool.

leximinflow is imported inside the functions, not at module level, so that
set-up can time a fresh import of the package.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (key, family, args): the allocate/audit pool.  One pass runs `allocate`
    # and `audit` once on each pool instance.
    pool: tuple
    # (key, family, args, coalition size, run budget): one `manipulate` each
    # per pass.
    manipulations: tuple
    audit_samples: int
    # Comma-separated ``--properties`` of each audit, or None for all of them.
    audit_properties: str | None = None
    # Median tier count the pool must reach, or None (multi-tier guard).
    tier_floor: int | None = None


def _staircase(n: int):
    """Agent a_i (i = 1..n) demands i+1 units of b_i and 1 unit of b_{i+1};
    every object has ample supply.  Agent a_i can absorb i+2 units, all
    distinct, so each agent freezes in its own tier: n tiers."""
    from leximinflow.core import Instance

    agents = tuple(f"a{i}" for i in range(1, n + 1))
    objects = tuple(f"b{j}" for j in range(1, n + 2))
    demand = {}
    for i in range(1, n + 1):
        demand[(f"a{i}", f"b{i}")] = i + 1
        demand[(f"a{i}", f"b{i + 1}")] = 1
    return Instance(
        agents=agents,
        endowment={a: 1 for a in agents},
        objects=objects,
        supply={b: n + 3 for b in objects},
        demand=demand,
    )


def _family(name: str, args: tuple):
    from leximinflow import generators

    if name == "staircase":
        return _staircase(*args)
    if name == "random":
        return generators.random_instance(*args)
    if name == "intro":
        return generators.burst_demand_instance(*args)
    if name == "lemma5":
        return generators.si_bound_instance(*args)
    raise ValueError(f"unknown family {name!r}")


def _sparse(n: int, seed: int):
    # Square random instance with expected degree 2.5: multi-tier.
    return (f"sparse{n}s{seed}", "random", (seed, n, n, 2.5 / n))


# The audits of `tiers` and `dense` leave out the oracle-backed substructure
# check, whose 2^agents cost would swamp the checkers; `small` runs it.
CHECKERS = "frugal,nw,ef,si,lorenz,structure"

# Every operation is kept to about 10 ms or less on an idle core.  The host is
# shared and switches between a fast and a roughly 2x slower state many times
# a second; an operation that short runs wholly in a fast spell in some of its
# passes, so its fastest run is steady from run to run.  Longer operations
# (25-50 ms) read 20-30% apart between runs of the same code.  Pools hold at
# least 24 instances, so that the tail percentile has ten operations beyond it,
# and few enough that each operation runs in about 50 passes.
TIERS = Workload(
    name="tiers",
    why="multi-tier staircase and sparse random instances: the tier loop does most of the work",
    # Sparse seeds chosen for 6 or more tiers at 7 agents.
    pool=tuple((f"stair{n}", "staircase", (n,)) for n in range(5, 8))
    + tuple(_sparse(7, s) for s in (1, 3, 13, 16, 18, 22, 23, 24, 25, 26, 28,
                                    29, 34, 35, 39, 41, 46, 47, 56, 59, 60)),
    manipulations=(
        ("stair3", "staircase", (3,), 1, 4),
        ("stair4", "staircase", (4,), 1, 2),
        _sparse(6, 2) + (1, 2),
        _sparse(6, 5) + (1, 2),
    ),
    audit_samples=10,
    audit_properties=CHECKERS,
    tier_floor=6,
)

DENSE = Workload(
    name="dense",
    why="one-tier dense random, intro and lemma5 instances: the tier loop is idle; the checkers, parsing and per-call work take two thirds of the time",
    # Random seeds chosen for a single tier at density 0.9.
    pool=tuple((f"dense{n}s{s}", "random", (s, n, n, 0.9))
               for n, seeds in ((6, (2, 7, 9, 10)), (7, (2, 4, 5, 7)), (8, (2, 4, 5, 7)))
               for s in seeds)
    + tuple((f"intro{n}", "intro", (n,)) for n in range(4, 10))
    + tuple((f"lemma5n{n}", "lemma5", (n,)) for n in range(6, 18)),
    manipulations=(
        ("intro4", "intro", (4,), 1, 8),
        ("lemma5n6", "lemma5", (6,), 1, 6),
        ("dense7", "random", (7, 7, 7, 0.9), 1, 4),
    ),
    audit_samples=10,
    audit_properties=CHECKERS,
)

SMALL = Workload(
    name="small",
    why="oracle-sized random instances: thousands of tiny solves, so per-call overhead dominates",
    pool=tuple((f"small{s}", "random", (s,)) for s in range(30)),
    manipulations=tuple(
        (f"small{s}", "random", (s,), c, 6) for s in (6, 8, 20) for c in (1, 2)
    ),
    audit_samples=50,
)

WORKLOADS = {w.name: w for w in (TIERS, DENSE, SMALL)}


def canonical_instances(workload: Workload) -> dict:
    """Key -> instance, in generator order (what ``expected.json`` records)."""
    specs = [p[:3] for p in workload.pool] + [m[:3] for m in workload.manipulations]
    return {key: _family(family, args) for key, family, args in specs}


def manipulation_id(manipulation) -> str:
    key, _, _, coalition, budget = manipulation
    return f"{key}/c{coalition}/b{budget}"


def fingerprint(instance) -> str:
    from leximinflow.fileio import serialize_instance

    return hashlib.sha256(serialize_instance(instance).encode("utf-8")).hexdigest()[:16]


def shuffled(instance, rng: random.Random):
    """The same instance with agents and objects listed in a random order.

    Tiers, rates and utilities do not depend on the order, so the recorded
    expectations still hold; the file, the network edge order and hence the
    solver's path choices change."""
    from leximinflow.core import Instance

    agents = list(instance.agents)
    objects = list(instance.objects)
    rng.shuffle(agents)
    rng.shuffle(objects)
    return Instance(
        agents=tuple(agents),
        endowment=instance.endowment,
        objects=tuple(objects),
        supply=instance.supply,
        demand=instance.demand,
    )


def seeded_instances(workload: Workload, seed: int) -> dict:
    """File key -> instance.  Pool instances list agents and objects in a
    seeded order.  Manipulation targets keep generator order, under
    ``search_key``: a budget-limited search tries misreports in agent and
    object order, so a shuffle would change which ones it runs."""
    canonical = canonical_instances(workload)
    files = {
        key: shuffled(canonical[key], random.Random(f"{seed}:{key}"))
        for key, *_ in workload.pool
    }
    files.update({search_key(m[0]): canonical[m[0]] for m in workload.manipulations})
    return files


def search_key(key: str) -> str:
    return f"{key}.search"
