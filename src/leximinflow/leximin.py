"""The allocation mechanism: breakpoint computation and lexicographic flow.

The mechanism raises a rate parameter lambda and lets every agent absorb
supply at rate endowment x lambda until the objects it can reach are
exhausted.  Agents freeze in tiers: tier i is the (inclusion-maximal) set of
agents whose joint absorption becomes tight at the i-th distinct rate
lambda_i, together with the objects they exhaust.  Each agent's final utility
is endowment(a) x lambda(a), where lambda(a) is the rate its tier froze at;
the allocation itself is any max flow of the network whose source edges are
capped at exactly those amounts.

The per-tier rate is the minimum, over nonempty subsets of the remaining
agents, of joint residual capacity over joint endowment.  It is found without
subset enumeration by an iterated min-ratio-cut scheme: guess lambda, solve a
max flow, read the source-heavy minimum cut; either the cut certifies lambda
as the minimum ratio (and its agent side is the maximal tight set), or the
agent side yields a strictly smaller ratio to recurse on.  Each tier needs at
most |remaining agents| + 1 max-flow solves.

Every network is bipartite on vertex indices: source 0, the p agents
1..p, the q objects p+1..p+q and sink p+q+1.  Its edges are the p source
edges, one edge per demand entry in sorted (agent, object) order, and one
sink edge per object, so a cut maps back to agents by index and the
allocation is read off the flow by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    Allocation,
    Instance,
    InternalCheckError,
    InvalidInstanceError,
    capped_supply,
    object_totals,
    validate_instance,
)
from .maxflow import FlowNetwork, max_flow, source_heavy_min_cut
from .rational import Rational, ZERO
from .reporting import PropertyReport, failing, passing

@dataclass(frozen=True)
class BreakpointProfile:
    """Tier structure of an instance: rates, agent tiers, exhausted objects.

    ``lambdas`` is strictly increasing.  ``agent_tiers[i]`` / ``object_tiers[i]``
    are the *cumulative* sets through tier i+1 (0-based), so the last agent
    tier is the full agent set.  ``per_agent`` maps each agent to the rate its
    tier froze at.
    """

    lambdas: tuple[Rational, ...]
    agent_tiers: tuple[frozenset, ...]
    object_tiers: tuple[frozenset, ...]
    per_agent: Mapping[str, Rational]

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def tier_of(self, agent: str) -> int:
        """0-based index of the tier the agent froze in."""
        for i, tier in enumerate(self.agent_tiers):
            if agent in tier:
                return i
        raise KeyError(agent)

    def new_agents(self, i: int) -> frozenset:
        """Agents that froze exactly at tier i (0-based)."""
        if i == 0:
            return self.agent_tiers[0]
        return self.agent_tiers[i] - self.agent_tiers[i - 1]

    def new_objects(self, i: int) -> frozenset:
        """Objects exhausted exactly at tier i (0-based)."""
        if i == 0:
            return self.object_tiers[0]
        return self.object_tiers[i] - self.object_tiers[i - 1]


def tier_capacity(caps: Mapping[str, Rational], demand: Mapping) -> Rational:
    """Joint absorbable supply of the agents behind ``demand``: per object,
    their demand capped by residual capacity."""
    total = ZERO
    for b, d in object_totals(demand).items():
        total += min(caps[b], d)
    return total


def _view_network(
    agents: Sequence[str], caps: Mapping[str, Rational], demand: Mapping, source_caps: Mapping
) -> FlowNetwork:
    """Bipartite flow network of the given agents and the objects in ``caps``,
    on vertex indices: source 0, agents 1..p in ``agents`` order, objects
    p+1..p+q in ``caps`` order, sink p+q+1.

    Edges come in three runs: the p source-to-agent edges, whose capacities
    are the caller's (this is the parametric part); the agent-to-object edges
    in sorted ``demand`` order, carrying demand; the object-to-sink edges,
    carrying the residual capacity.
    """
    p = len(agents)
    sink = p + len(caps) + 1
    agent_id = {a: i for i, a in enumerate(agents, 1)}
    object_id = {b: i for i, b in enumerate(caps, p + 1)}
    edges = [(0, i, source_caps[a]) for a, i in agent_id.items()]
    edges += [(agent_id[a], object_id[b], d) for (a, b), d in sorted(demand.items())]
    edges += [(i, sink, c) for i, c in enumerate(caps.values(), p + 1)]
    return FlowNetwork(vertices=tuple(range(sink + 1)), source=0, sink=sink, edges=tuple(edges))


def build_network(instance: Instance, source_caps: Mapping[str, Rational]) -> FlowNetwork:
    """Flow network of a whole instance: every agent and object, with sink
    edges carrying the demand-capped supply."""
    return _view_network(instance.agents, capped_supply(instance), instance.demand, source_caps)


def min_ratio(
    agents: Sequence[str], caps: Mapping[str, Rational], demand: Mapping, endowments: Mapping
) -> tuple[Rational, frozenset]:
    """Minimum of capacity/endowment over nonempty subsets of ``agents``, with
    the maximal subset attaining it, given the active objects' residual
    ``caps`` and the ``demand`` entries among them.

    Iterated min-ratio-cut: starting from the full-set ratio, each round solves
    one max flow at source caps endowment x lambda and reads the source-heavy
    minimum cut.  A cut of capacity endowment-total x lambda certifies lambda;
    otherwise the cut's agent side has a strictly smaller ratio, which becomes
    the next lambda.
    """
    if not agents:
        raise ValueError("min_ratio needs at least one agent")
    total_e = ZERO
    for a in agents:
        total_e += endowments[a]
    lam = tier_capacity(caps, demand) / total_e
    rounds = 0
    while True:
        rounds += 1
        if rounds > len(agents) + 1:
            raise InternalCheckError("min-ratio iteration exceeded its bound")
        network = _view_network(agents, caps, demand, {a: endowments[a] * lam for a in agents})
        flow = max_flow(network)
        cut = source_heavy_min_cut(network, flow)
        tight = frozenset(a for i, a in enumerate(agents, 1) if i in cut.source_side)
        if cut.capacity == total_e * lam:
            return lam, tight
        if not tight:
            raise InternalCheckError("non-certifying cut with empty agent side")
        tight_e = ZERO
        for a in tight:
            tight_e += endowments[a]
        # Newton step of Dinkelbach (1967) for fractional programs: a minimum
        # cut puts each object on whichever side costs min(residual cap,
        # demand of T), so its capacity is cap(T) + lambda x e(A \ T), and the
        # ratio cap(T) / e(T) needs no second pass over the demand.
        next_lam = (cut.capacity - lam * (total_e - tight_e)) / tight_e
        if next_lam >= lam:
            raise InternalCheckError("min-ratio iteration failed to decrease")
        lam = next_lam


def breakpoints(instance: Instance) -> BreakpointProfile:
    """Tier structure of an instance: peel off the maximal minimum-ratio agent
    set at each rate, mark the objects it exhausts, and recompute residual
    capacities for the rest.

    The active demand entries and the residual caps of the active objects are
    carried from tier to tier; each frozen tier updates them from its own
    demand entries.
    """
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError("; ".join(violations))
    remaining = list(instance.agents)
    exhausted: set = set()
    caps = capped_supply(instance)
    demand = instance.demand
    fixed: set = set()
    lambdas: list[Rational] = []
    agent_tiers: list[frozenset] = []
    object_tiers: list[frozenset] = []
    per_agent: dict[str, Rational] = {}
    while remaining:
        lam, tier = min_ratio(remaining, caps, demand, instance.endowment)
        if not tier:
            raise InternalCheckError("empty tier")
        if lambdas and lam <= lambdas[-1]:
            raise InternalCheckError(
                f"rates must strictly increase, got {lambdas[-1]} then {lam}"
            )
        tier_demand = object_totals(demand, tier)
        newly_exhausted = {b for b, d in tier_demand.items() if d > caps[b]}
        fixed |= tier
        exhausted |= newly_exhausted
        lambdas.append(lam)
        agent_tiers.append(frozenset(fixed))
        object_tiers.append(frozenset(exhausted))
        for a in tier:
            per_agent[a] = lam
        remaining = [a for a in remaining if a not in tier]
        caps = {b: c for b, c in caps.items() if b not in newly_exhausted}
        for b, d in tier_demand.items():
            if b in caps:
                caps[b] -= d
                if caps[b] < ZERO:
                    raise InternalCheckError(
                        f"negative residual capacity for non-exhausted object {b!r}"
                    )
        demand = {k: d for k, d in demand.items() if k[0] not in tier and k[1] in caps}
    return BreakpointProfile(
        lambdas=tuple(lambdas),
        agent_tiers=tuple(agent_tiers),
        object_tiers=tuple(object_tiers),
        per_agent=per_agent,
    )


def lexicographic_allocation(instance: Instance) -> tuple[Allocation, BreakpointProfile]:
    """Run the mechanism: compute the tier structure, then a max flow with
    source edges capped at endowment x frozen-rate, and read the allocation off
    the agent-to-object flow.

    Self-checks (fatal on failure): the flow saturates every source edge and
    every capped-supply edge, i.e. its value equals both the total of
    endowment x rate and the total demand-capped supply.
    """
    profile = breakpoints(instance)
    capped = capped_supply(instance)
    source_caps = {
        a: instance.endowment[a] * profile.per_agent[a] for a in instance.agents
    }
    network = build_network(instance, source_caps)
    flow = max_flow(network)
    total_capped = ZERO
    for b in instance.objects:
        total_capped += capped[b]
    total_source = ZERO
    for a in instance.agents:
        total_source += source_caps[a]
    if flow.value != total_capped or flow.value != total_source:
        raise InternalCheckError(
            f"lexicographic flow value {flow.value} != capped supply {total_capped}"
            f" or != endowment-rate total {total_source}"
        )
    # The demand edges follow the source edges, in sorted demand order.
    demand_flows = flow.edge_flows[len(instance.agents):]
    amounts = {key: f for key, f in zip(sorted(instance.demand), demand_flows) if f != ZERO}
    return Allocation(amounts), profile


def structure_check(
    instance: Instance, allocation: Allocation, profile: BreakpointProfile
) -> PropertyReport:
    """Verify the exact structural identities a mechanism allocation must obey.

    (a) an agent frozen at tier i receives its full demand on every object
        never exhausted by tier i; (b) objects exhausted at tier i give nothing
        to agents frozen later; (c) objects exhausted by tier i are fully
        consumed by the agents of tiers <= i; (d) per tier, the total frozen
        absorption equals exhausted supply plus the frozen agents' demand on
        unexhausted objects.

    Checks (a)-(c) run over the demand and allocation entries, and (d)
    carries its totals from tier to tier.  The witness is the first violation
    by tier, then by check, then in instance agent/object order.
    """
    name = "structure"
    k = profile.k
    # Tier of each agent and object; k means never frozen / never exhausted.
    agent_tier = dict.fromkeys(instance.agents, k)
    object_tier = dict.fromkeys(instance.objects, k)
    for i in range(k):
        agent_tier.update(dict.fromkeys(profile.new_agents(i), i))
        object_tier.update(dict.fromkeys(profile.new_objects(i), i))
    agent_rank = {a: r for r, a in enumerate(agent_tier)}
    object_rank = {b: r for r, b in enumerate(object_tier)}
    capped = capped_supply(instance)
    # Violations as (tier, check, rank, rank, subject, lhs, rhs, note).
    found = []
    consumed: dict[str, Rational] = {}
    # Demand on objects still open when its agent froze, all and per tier.
    open_entries: dict = {}
    open_by_tier = [ZERO] * k
    for key in instance.demand.keys() | allocation.amount.keys():
        a, b = key
        ta, tb = agent_tier.get(a), object_tier.get(b)
        if ta is None or tb is None:
            continue
        mu = allocation.amount.get(key, ZERO)
        d = instance.demand.get(key, ZERO)
        if ta < tb:
            if mu != d:
                found.append((ta, 0, agent_rank[a], object_rank[b], key, mu, d,
                              "unexhausted object must be served in full"))
            open_entries[key] = d
            open_by_tier[ta] += d
        elif tb < ta and mu != ZERO:
            found.append((tb, 1, object_rank[b], agent_rank[a], key, mu, ZERO,
                          "later agent served from an exhausted object"))
        if ta <= tb < k:
            consumed[b] = consumed.get(b, ZERO) + mu
    # An exhausted object's consumption is final at its own tier: a later
    # holder is a (b) violation at that tier, which (c) comes after.
    for b, tb in object_tier.items():
        if tb < k and consumed.get(b, ZERO) != capped[b]:
            found.append((tb, 2, object_rank[b], 0, (b,), consumed.get(b, ZERO), capped[b],
                          "exhausted object not fully consumed by its tiers"))
    # (d) carried forward: the frozen agents' demand on unexhausted objects
    # gains each tier's open demand and loses the demand on the objects the
    # tier exhausts.
    open_demand = object_totals(open_entries)
    absorbed = exhausted_supply = outside = ZERO
    for i in range(k):
        for a in profile.new_agents(i):
            absorbed += instance.endowment[a] * profile.lambdas[i]
        outside += open_by_tier[i]
        for b in profile.new_objects(i):
            exhausted_supply += instance.supply[b]
            outside -= open_demand.get(b, ZERO)
        if absorbed != exhausted_supply + outside:
            found.append((i, 3, 0, 0, (f"tier {i + 1}",), absorbed, exhausted_supply + outside,
                          "absorption total != exhausted supply + outside demand"))
            break
    if found:
        *_, subject, lhs, rhs, note = min(found)
        return failing(name, subject, lhs, rhs, note=note)
    return passing(name)
