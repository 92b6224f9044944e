"""The allocation mechanism: breakpoint computation and lexicographic flow.

The mechanism raises a rate parameter lambda and lets every agent absorb
supply at rate endowment x lambda until the objects it can reach are
exhausted.  Agents freeze in tiers: tier i is the (inclusion-maximal) set of
agents whose joint absorption becomes tight at the i-th distinct rate
lambda_i, together with the objects they exhaust.  Each agent's final utility
is endowment(a) x lambda(a), where lambda(a) is the rate its tier froze at;
the allocation itself is any max flow of the network whose source edges are
capped at exactly those amounts.

The tiers are the decomposition of a lexicographically optimal polymatroid
base (Fujishige 1980), found by divide and conquer over a split tree (Gallo,
Grigoriadis & Tarjan 1989) without subset enumeration.  Each node of the tree
sets lambda to its agents' joint ratio of residual capacity to endowment,
solves one max flow at source caps endowment x lambda and reads the
source-heavy minimum cut: either the cut certifies the node's agents as one
tier at rate lambda, or its agent side splits them into the agents that
freeze at rates up to lambda and the rest.  A node with one agent is a tier
by identity, since its network's only cut is the source edge, so it records
its rate without a flow.  A solve with k tiers, s of them single-agent,
takes exactly 2k - 1 - s split flows, plus the final allocation flow.

The split tree runs on Python ints.  ``breakpoints`` scales the instance
once per solve into one int view (``_scaled``): raw supplies and demands by
D, the lcm of their denominators, with the demands' per-object totals, and
endowments by E, the lcm of theirs.  A caller may widen D by extra
denominators, as the manipulation search does for its grid.  Every node
carries its per-object demand totals, so no node sums its entries again:
its capacity is the sum of min(cap_b, total_b), and a certified node reads
its exhausted objects off its totals.  A node with agent set A scales its
network by e(A), so every split flow is integral, and it keeps its rate as
the int pair (cap(A), e(A)).  Once the tree is done, each rate becomes the
int cap(A) x L / e(A) over one unit L, the lcm of the pairs' reduced
denominators, and a ``Rational`` is built only once per tier: its rate in
instance units is cap(A) x E / (e(A) x D).  Each leaf records its
tier's exhausted objects, so no pass follows the tree.  ``max_flow`` takes
integral networks only, so the final allocation flow reuses the same int
view: agent a's source edge carries its int endowment x its int rate,
demand and sink edges are multiplied by L, and a nonzero edge flow f is
amount f / (D x L).  That network holds the demanded objects, as the root
does: an undemanded object has no demand edge and a zero sink edge, so it
carries no flow.  On the rest it is a positive multiple of the instance's
network, so Dinic makes the same augmentations at any such scale.  The
split tree takes an int view directly (``_split_tree``), so the
manipulation search runs it on misreports it scales itself.

Both entry points validate the instance first and raise
``InvalidInstanceError`` on invalid input.  Past that point the input is
known good, so a ``ValueError`` from the split tree or the final flow is a
solver bug, raised as ``InternalCheckError`` whoever called them.

Every network is bipartite on vertex indices: source 0, the p agents
1..p, the q objects p+1..p+q and sink p+q+1.  Its edges are the p source
edges, one edge per demand entry, and one sink edge per object, so a cut
maps back to agents by index and the allocation is read off the flow by
position.  ``_view_network`` fills the arc arrays straight from a node's
int dicts, with the node scale e(A), or the final unit L, as a multiplier
on the demand and sink edges, so no node copies a scaled dict.  A split
network lists its demand edges in the node dict's order: its source-heavy
cut is the same whichever maximum flow Dinic finds.  Only the final flow
sorts its demand edges, once, into (agent, object) order, since the
allocation it prints depends on that order.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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

    ``lambdas`` is strictly increasing.  ``agent_tiers[i]`` holds the agents
    that froze exactly at tier i (0-based) and ``object_tiers[i]`` the objects
    that tier exhausted, so each tier is stored once and the agent tiers
    partition the agents.  ``per_agent`` maps each agent to the rate its tier
    froze at.
    """

    lambdas: tuple[Rational, ...]
    agent_tiers: tuple[frozenset, ...]
    object_tiers: tuple[frozenset, ...]
    per_agent: Mapping[str, Rational]

    @property
    def k(self) -> int:
        return len(self.lambdas)

    def tier_of(self, agent: str) -> int:
        """0-based index of the tier the agent froze in: the position of its
        rate among the strictly increasing ``lambdas``."""
        return bisect_left(self.lambdas, self.per_agent[agent])


def tier_capacity(caps: Mapping[str, int], totals: Mapping[str, int]) -> int:
    """Joint absorbable supply of a node's agents: per object, their demand
    total ``totals[b]`` capped by the residual capacity ``caps[b]``.  The sum
    starts from the int 0, so int caps and totals give an int."""
    total = 0
    for b, t in totals.items():
        total += min(caps[b], t)
    return total


def _view_network(
    source_caps: Mapping, demand: Mapping, caps: Mapping[str, Rational], scale: int = 1
) -> FlowNetwork:
    """The solver's one network builder: the bipartite flow network of the
    agents in ``source_caps`` and the objects in ``caps``, on vertex
    indices: source 0, agents 1..p in ``source_caps`` order, objects
    p+1..p+q in ``caps`` order, sink p+q+1.

    Edges come in three runs: the p source-to-agent edges, whose capacities
    are the caller's (this is the parametric part); the agent-to-object edges
    in ``demand`` order, carrying demand times ``scale``; the object-to-sink
    edges, carrying the residual capacity times ``scale``.
    """
    return FlowNetwork(source_caps, demand, caps, scale)


def build_network(instance: Instance, source_caps: Mapping[str, Rational]) -> FlowNetwork:
    """Flow network of a whole instance: every agent and object, demand
    edges in sorted (agent, object) order, and sink edges carrying the
    demand-capped supply."""
    return _view_network(
        {a: source_caps[a] for a in instance.agents},
        dict(sorted(instance.demand.items())),
        capped_supply(instance),
    )


def min_ratio(
    agents: Sequence[str], caps: Mapping[str, int], demand: Mapping, totals: Mapping,
    endowments: Mapping,
) -> tuple[int, int, frozenset]:
    """One split of the tier decomposition, in one max flow: the joint rate
    lambda = cap / e, returned as the int pair (cap, e) of the agents' joint
    capacity cap(agents) and endowment total e(agents), and the maximal
    minimizer T of cap(X) - lambda x e(X) over the subsets X of ``agents``,
    given the active objects' residual ``caps``, the ``demand`` entries
    among them and their per-object ``totals``.

    The flow runs at source caps endowment x lambda, with the whole network
    scaled by the node scale e: source edges carry endowment x cap, and
    demand and sink edges are multiplied by e, which the network builder
    takes as its multiplier, so the node copies no scaled dict.  The caps,
    demands and endowments must be integral, so that every edge is an int.
    T is the agent side of the source-heavy minimum cut: the cut puts each
    object on whichever side costs min(residual cap, demand of T), so its
    capacity, the flow value, is e x (cap(T) + lambda x e(agents - T)).
    A cut of capacity e x cap, the source total, certifies the agents as one
    tier at rate lambda, and T is all of them.  Otherwise T is nonempty and
    proper: it holds exactly the agents whose tiers freeze at rates up to
    lambda.
    """
    if not agents:
        raise ValueError("min_ratio needs at least one agent")
    total_e = 0
    for a in agents:
        total_e += endowments[a]
    cap = tier_capacity(caps, totals)
    network = _view_network({a: endowments[a] * cap for a in agents}, demand, caps, total_e)
    flow = max_flow(network)
    source_side = source_heavy_min_cut(network, flow)
    source_total = total_e * cap
    if flow.value > source_total:
        raise InternalCheckError(
            f"cut capacity {flow.value} exceeds the source capacity {source_total}"
        )
    if flow.value == source_total:
        return cap, total_e, frozenset(agents)
    tight = frozenset(a for i, a in enumerate(agents, 1) if i in source_side)
    if not tight or len(tight) == len(agents):
        raise InternalCheckError(
            f"non-certifying cut must split the agents, got {len(tight)} of {len(agents)}"
        )
    return cap, total_e, tight


def _common_denominator(values: Iterable[Rational]) -> int:
    """The lcm of the values' denominators: the least scale that makes every
    value an int."""
    # int(): a gmpy2 denominator is an mpz.
    return math.lcm(*(int(v.denominator) for v in values))


def _as_ints(values: Mapping, scale: int) -> dict:
    """The values times ``scale``, as ints."""
    return {k: int(v.numerator) * (scale // int(v.denominator)) for k, v in values.items()}


def _require_valid(instance: Instance) -> None:
    """Raise ``InvalidInstanceError`` naming every violation of an invalid
    instance."""
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError("; ".join(violations))


def _on_valid_input(solve):
    """``solve`` on the int view of a validated instance: a ``ValueError``
    from it is a solver bug, raised as ``InternalCheckError``."""

    @functools.wraps(solve)
    def checked(*args):
        try:
            return solve(*args)
        except ValueError as exc:
            raise InternalCheckError(f"solver raised ValueError on valid input: {exc}") from exc

    return checked


class _View(NamedTuple):
    """A valid instance's int view: its raw supplies, in object order, and
    its demands, both times the demand scale D, with the demands' per-object
    totals; its endowments times the endowment scale E; and D and E."""

    agents: tuple
    objects: tuple
    supply: dict
    demand: dict
    totals: dict
    endowment: dict
    scale: int
    endowment_scale: int

    def capped(self, totals: Mapping[str, int]) -> dict:
        """The root caps of a split tree over demands with these per-object
        ``totals``: each demanded object's supply capped by its total."""
        supply = self.supply
        return {b: min(supply[b], t) for b, t in totals.items()}


def _scaled(instance: Instance, extra: Iterable[Rational] = ()) -> _View:
    """A valid instance's int view.  D is the lcm of the supplies' and
    demands' denominators times the lcm of the ``extra`` values'
    denominators, so that a caller may also read those values' multiples of
    a demand as ints; E is the lcm of the endowments' denominators.
    Validates first: raises ``InvalidInstanceError`` on an invalid
    instance."""
    _require_valid(instance)
    supply = {b: instance.supply[b] for b in instance.objects}
    scale = _common_denominator([*supply.values(), *instance.demand.values()])
    scale *= _common_denominator(extra)
    demand = _as_ints(instance.demand, scale)
    endowment_scale = _common_denominator(instance.endowment.values())
    return _View(
        instance.agents,
        instance.objects,
        _as_ints(supply, scale),
        demand,
        object_totals(demand),
        _as_ints(instance.endowment, endowment_scale),
        scale,
        endowment_scale,
    )


@_on_valid_input
def _split_tree(
    agents: Sequence[str], capped: Mapping[str, int], demand: Mapping, totals: Mapping,
    endowment: Mapping,
) -> tuple[list[tuple[int, frozenset, frozenset]], int]:
    """The tiers of an int view, as (rate, agents, exhausted objects) sorted
    by rate, and their rate unit L: the split tree of ``breakpoints``, rooted
    at every agent, the ``capped`` supplies of the demanded objects
    (``_View.capped``), the ``demand`` entries and their per-object
    ``totals``, which name exactly the objects of ``capped``.  A tier
    certified at the int pair (cap, e) has the int rate cap x L / e, where
    L, the lcm of the tiers' e / gcd(cap, e), is the least unit that makes
    every rate an int.

    Self-checks (fatal on failure): the rates strictly increase, and the
    tiers absorb exactly the capped supply: the sum of endowment x rate is
    L x the sum of ``capped``.
    """
    leaves: list[tuple[int, int, frozenset, frozenset]] = []
    work = [(list(agents), capped, demand, totals)] if agents else []
    while work:
        agents, caps, demand, totals = work.pop()
        if len(agents) == 1:
            # Its network's only cut is the source edge, since cap is the sum
            # of min(cap_b, d_ab) over a's entries: the node certifies at rate
            # cap / e_a without a flow.
            cap, e, tight = tier_capacity(caps, totals), endowment[agents[0]], frozenset(agents)
        else:
            cap, e, tight = min_ratio(agents, caps, demand, totals, endowment)
        if len(tight) == len(agents):
            # A certified node's tier demands all of its totals.
            leaves.append((cap, e, tight, frozenset(b for b, t in totals.items() if t > caps[b])))
            continue
        tight_demand, other_demand, tight_totals = {}, {}, {}
        for k, d in demand.items():
            if k[0] in tight:
                tight_demand[k] = d
                tight_totals[k[1]] = tight_totals.get(k[1], 0) + d
            else:
                other_demand[k] = d
        exhausted = {b for b, t in tight_totals.items() if t > caps[b]}
        # The contraction keeps each object that T leaves open and the other
        # agents still demand, at the cap and total T leaves.
        rest_caps, rest_totals = {}, {}
        for b, t in totals.items():
            used = tight_totals.get(b, 0)
            if t > used and b not in exhausted:
                rest_caps[b] = caps[b] - used
                rest_totals[b] = t - used
        rest_demand = {k: d for k, d in other_demand.items() if k[1] not in exhausted}
        work.append(([a for a in agents if a not in tight], rest_caps, rest_demand, rest_totals))
        work.append(([a for a in agents if a in tight],
                     {b: caps[b] for b in tight_totals}, tight_demand, tight_totals))
    unit = math.lcm(*(e // math.gcd(cap, e) for cap, e, *_ in leaves))
    tiers = sorted(
        ((cap * unit // e, tight, exhausted) for cap, e, tight, exhausted in leaves),
        key=lambda tier: tier[0],
    )
    for (slower, *_), (faster, *_) in zip(tiers, tiers[1:]):
        if faster <= slower:
            raise InternalCheckError(
                f"rates must strictly increase, got {slower} then {faster} (int units over {unit})"
            )
    absorbed = sum(endowment[a] * rate for rate, tier, _ in tiers for a in tier)
    supply = sum(capped.values())
    if absorbed != unit * supply:
        raise InternalCheckError(
            f"endowment-rate total {absorbed} != capped supply {supply} times the rate unit {unit}"
        )
    return tiers, unit


@_on_valid_input
def _final_flow(
    agents: Sequence[str], capped: Mapping[str, int], demand: Mapping, endowment: Mapping,
    tiers: Sequence[tuple[int, frozenset, frozenset]], unit: int,
) -> dict:
    """The allocation flow of an int view and its tiers over the rate unit
    L: the nonzero flow on each demand entry.  The network is the view's
    ``capped`` supplies and demands times L, with agent a's source edge at
    endowment[a] x rate, so a flow f is the amount f / (D x L) for the
    view's demand scale D.

    Self-check (fatal on failure): the flow saturates every source edge.
    ``_split_tree`` checked that the source edges' total is the capped
    supply's, so the flow saturates every capped-supply edge too.
    """
    rate_of = {}
    for rate, tier, _ in tiers:
        rate_of.update(dict.fromkeys(tier, rate))
    source_caps = {a: endowment[a] * rate_of[a] for a in agents}
    # The one sort: the allocation is read off the demand edges by position.
    demand = dict(sorted(demand.items()))
    flow = max_flow(_view_network(source_caps, demand, capped, unit))
    total = sum(source_caps.values())
    if flow.value != total:
        raise InternalCheckError(
            f"lexicographic flow value {flow.value} != endowment-rate total {total}"
            f" = capped supply (int units times {unit})"
        )
    # The demand edges follow the source edges, in sorted demand order.
    demand_flows = flow.edge_flows()[len(agents):]
    return {k: f for k, f in zip(demand, demand_flows) if f}


def _profile(tiers, unit: int, endowment_scale: int) -> BreakpointProfile:
    """The breakpoint profile of sorted tiers whose int rates are over the
    unit D x L, for demand scale D, rate unit L and endowment scale E: each
    rate times E / (D x L), the only ``Rational`` built per tier."""
    lambdas: list[Rational] = []
    per_agent: dict[str, Rational] = {}
    for rate, tier, _ in tiers:
        lam = Rational(rate * endowment_scale, unit)
        lambdas.append(lam)
        per_agent.update(dict.fromkeys(tier, lam))
    return BreakpointProfile(
        lambdas=tuple(lambdas),
        agent_tiers=tuple(tier for _, tier, _ in tiers),
        object_tiers=tuple(exhausted for *_, exhausted in tiers),
        per_agent=per_agent,
    )


def breakpoints(instance: Instance) -> BreakpointProfile:
    """Tier structure of an instance, by divide and conquer over a split tree
    (Fujishige 1980; Gallo, Grigoriadis & Tarjan 1989).

    The solve runs on ints: supplies and demands times D, the lcm of their
    denominators, and endowments times E, the lcm of theirs.  A node is an
    agent set, the residual caps of the objects it demands, its demand
    entries among them and their per-object totals; it costs one
    ``min_ratio`` flow, scaled by the node's endowment total.  A certified
    node is one tier, at the int pair (cap, e) of its capacity and endowment
    total, which is the rate cap x E / (e x D).  Otherwise its split T has
    two children: the restriction, T with the same caps and T's totals;
    and the contraction, the other agents with the caps left once T has
    frozen: an object T over-demands is exhausted, and every other object's
    cap and total fall by T's demand, which drops an object that only T
    demands.  k tiers take 2k - 1 nodes.  A node with one agent always
    certifies, so it takes no flow: k tiers, s of them single-agent, take
    exactly 2k - 1 - s flows.  An explicit worklist walks the tree, whose
    depth can reach k.

    A node's caps are those left once every slower agent has frozen, so each
    node applies one over-demand rule: T exhausts the objects on which its
    demand total exceeds the cap.  A certified node records that set as its
    tier's exhausted objects; a split node drops it from the contraction.
    The leaves, sorted by their int rates over one unit L, are the tiers.
    """
    view = _scaled(instance)
    tiers, unit = _split_tree(
        view.agents, view.capped(view.totals), view.demand, view.totals, view.endowment
    )
    return _profile(tiers, view.scale * unit, view.endowment_scale)


def lexicographic_allocation(instance: Instance) -> tuple[Allocation, BreakpointProfile]:
    """Run the mechanism: compute the tier structure, then a max flow with
    source edges capped at endowment x frozen-rate, and read the allocation off
    the agent-to-object flow.  Both run on one int view of the instance: the
    final network is that view's demanded objects times L, the tiers' rate
    unit, so every capacity is an int.

    Self-checks (fatal on failure): the flow saturates every source edge and
    every capped-supply edge, i.e. its value equals both the total of
    endowment x rate and the total demand-capped supply.
    """
    view = _scaled(instance)
    capped = view.capped(view.totals)
    tiers, unit = _split_tree(view.agents, capped, view.demand, view.totals, view.endowment)
    flows = _final_flow(view.agents, capped, view.demand, view.endowment, tiers, unit)
    unit *= view.scale
    amounts = {k: Rational(f, unit) for k, f in flows.items()}
    return Allocation(amounts), _profile(tiers, unit, view.endowment_scale)


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
        agent_tier.update(dict.fromkeys(profile.agent_tiers[i], i))
        object_tier.update(dict.fromkeys(profile.object_tiers[i], i))
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
        for a in profile.agent_tiers[i]:
            absorbed += instance.endowment[a] * profile.lambdas[i]
        outside += open_by_tier[i]
        for b in profile.object_tiers[i]:
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
