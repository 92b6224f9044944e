"""The mechanism: networks, per-tier rates, tier structure, allocation, checks."""

import dataclasses
import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import breakpoint_example, scaled, staircase
from leximinflow import cli, leximin
from leximinflow.core import (
    Allocation,
    Instance,
    InternalCheckError,
    InvalidInstanceError,
    capped_supply,
    object_totals,
    utilities,
    utility_vector,
)
from leximinflow.fileio import save_instance
from leximinflow.generators import (
    burst_demand_instance,
    random_instance,
    si_bound_instance,
    si_misreport_instance,
)
from leximinflow.leximin import (
    BreakpointProfile,
    _view_network,
    breakpoints,
    build_network,
    lexicographic_allocation,
    min_ratio,
    structure_check,
    tier_capacity,
)
from leximinflow.maxflow import max_flow, source_heavy_min_cut
from leximinflow.oracle import oracle_breakpoints
from leximinflow.properties import is_frugal, is_nw
from leximinflow.rational import ONE, Rational, ZERO


def newton_min_ratio(agents, caps, demand, endowments):
    """Minimum of capacity/endowment over nonempty subsets of ``agents``, with
    the maximal subset attaining it, as the solver found it before the split
    tree: Newton rounds of Dinkelbach (1967), one max flow over all of
    ``agents`` per round, until the source-heavy cut certifies the rate.
    Each round's network is scaled to ints, and the cut capacity, the flow
    value, is divided back."""
    total_e = sum((endowments[a] for a in agents), ZERO)
    lam = tier_capacity(caps, object_totals(demand)) / total_e
    for _ in range(len(agents) + 1):
        network, scale = scaled(
            _view_network({a: endowments[a] * lam for a in agents}, demand, caps)
        )
        flow = max_flow(network)
        source_side = source_heavy_min_cut(network, flow)
        capacity = Rational(flow.value, scale)
        tight = frozenset(a for i, a in enumerate(agents, 1) if i in source_side)
        if capacity == total_e * lam:
            return lam, tight
        assert tight, "non-certifying cut with empty agent side"
        tight_e = sum((endowments[a] for a in tight), ZERO)
        # The cut's capacity is cap(T) + lambda x e(A \ T).
        next_lam = (capacity - lam * (total_e - tight_e)) / tight_e
        assert next_lam < lam, "min-ratio iteration failed to decrease"
        lam = next_lam
    raise AssertionError("min-ratio iteration exceeded its bound")


def newton_breakpoints(instance):
    """The tier loop the split tree replaced: peel off the maximal
    minimum-ratio agent set at each rate, then carry the residual caps and
    the active demand entries to the next tier."""
    remaining = list(instance.agents)
    caps = capped_supply(instance)
    demand = instance.demand
    lambdas, agent_tiers, object_tiers, per_agent = [], [], [], {}
    while remaining:
        lam, tier = newton_min_ratio(remaining, caps, demand, instance.endowment)
        tier_demand = object_totals(demand, tier)
        newly_exhausted = {b for b, d in tier_demand.items() if d > caps[b]}
        lambdas.append(lam)
        agent_tiers.append(tier)
        object_tiers.append(frozenset(newly_exhausted))
        per_agent.update(dict.fromkeys(tier, lam))
        remaining = [a for a in remaining if a not in tier]
        caps = {b: c for b, c in caps.items() if b not in newly_exhausted}
        for b, d in tier_demand.items():
            if b in caps:
                caps[b] -= d
        demand = {k: d for k, d in demand.items() if k[0] not in tier and k[1] in caps}
    return BreakpointProfile(
        lambdas=tuple(lambdas),
        agent_tiers=tuple(agent_tiers),
        object_tiers=tuple(object_tiers),
        per_agent=per_agent,
    )


def test_build_network_single_pair():
    inst = Instance(("a",), {"a": 1}, ("b",), {"b": 5}, {("a", "b"): 2})
    net = build_network(inst, {"a": Rational(10)})
    # Source 0, agent a 1, object b 2, sink 3.
    assert net.n == 4
    assert net.edges == (
        (0, 1, Rational(10)),
        (1, 2, Rational(2)),
        (2, 3, Rational(2)),  # supply capped by demand
    )


def test_build_network_omits_zero_demand_edges():
    inst = si_bound_instance(2)
    net = build_network(inst, {a: ONE for a in inst.agents})
    # Source 0, agents a1 a2 1-2, objects b1 b2 3-4, sink 5.
    assert net.n == 6
    demand_edges = [(t, h) for t, h, _ in net.edges if t in (1, 2)]
    assert demand_edges == [(1, 3), (1, 4), (2, 3)]  # a2 demands nothing of b2
    sink_caps = {t: c for t, h, c in net.edges if h == net.n - 1}
    assert sink_caps == {3: Rational(2), 4: Rational(1)}


def test_build_network_empty_instance():
    inst = Instance((), {}, (), {}, {})
    net = build_network(inst, {})
    assert net.n == 2  # source 0, sink 1
    assert net.edges == ()


def test_full_demand_source_caps_route_all_effective_supply():
    # With source edges wide enough to pass each agent's entire demand, the
    # max-flow value is exactly the total demand-capped supply.
    inst = si_bound_instance(2)
    caps = {a: sum((d for (x, _), d in inst.demand.items() if x == a), ZERO) for a in inst.agents}
    net, scale = scaled(build_network(inst, caps))
    value = Rational(max_flow(net).value, scale)
    assert value == sum(capped_supply(inst).values(), ZERO) == Rational(3)


def test_min_cut_capacity_at_the_shared_rate():
    inst = si_misreport_instance()
    net, scale = scaled(
        build_network(inst, {a: Rational(3) * inst.endowment[a] for a in inst.agents})
    )
    flow = max_flow(net)
    assert Rational(flow.value, scale) == Rational(9)
    # The sink edges, from every vertex but the sink, are the cut.
    assert source_heavy_min_cut(net, flow) == frozenset(range(6))


def test_source_heavy_cut_separates_the_slower_agent():
    inst = breakpoint_example()
    net, _ = scaled(build_network(inst, {a: ONE for a in inst.agents}))
    source_side = source_heavy_min_cut(net, max_flow(net))
    # Agents a1 and a2 are vertices 1 and 2.
    assert 1 in source_side
    assert 2 not in source_side


def root_node(inst):
    """The split tree's root node of an instance's int view: its agents, the
    capped supplies and demands, the demand totals and the endowments."""
    view = leximin._scaled(inst)
    return view.agents, view.capped(), view.demand, view.totals, view.endowment


def test_min_ratio_single_agent():
    inst = Instance(("a",), {"a": 1}, ("b",), {"b": 3}, {("a", "b"): 1})
    assert min_ratio(*root_node(inst)) == (1, 1, frozenset({"a"}))


def test_min_ratio_picks_the_slowest_group():
    # The joint rate is 3/2, the supply over both endowments; a1 alone
    # absorbs only 1 < 3/2, so the split puts a1 below that rate.
    cap, e, tight = min_ratio(*root_node(breakpoint_example()))
    assert (cap, e) == (3, 2)
    assert tight == frozenset({"a1"})


def test_min_ratio_returns_the_maximal_tight_set():
    # One tier: the cut certifies the joint rate and T is every agent.
    inst = si_misreport_instance()
    cap, e, tight = min_ratio(*root_node(inst))
    assert Rational(cap, e) == Rational(3)
    assert tight == frozenset(inst.agents)


def test_min_ratio_rejects_empty_view():
    with pytest.raises(ValueError):
        min_ratio((), {}, {}, {}, {})


def prime_denominator_instance(seed, n=10, density=0.3):
    """Seeded n x n instance whose every number has a denominator of 97, 101
    or 103, so the solve's int scales are products of large primes."""
    rng = random.Random(seed)

    def draw(low):
        return Rational(rng.randint(low, 60), rng.choice((97, 101, 103)))

    agents = tuple(f"a{i}" for i in range(1, n + 1))
    objects = tuple(f"b{j}" for j in range(1, n + 1))
    demand = {(a, b): draw(1) for a in agents for b in objects if rng.random() < density}
    return Instance(
        agents, {a: draw(1) for a in agents}, objects, {b: draw(0) for b in objects}, demand
    )


def path_tree_instance(n):
    """Agent a_i alone demands object b_i and freezes at rate i.  Each
    endowment outweighs the slower agents' joint pull on the mean rate, so
    every split peels off only the fastest agent: the split tree is a path
    of depth n - 1."""
    agents = tuple(f"a{i}" for i in range(1, n + 1))
    objects = tuple(f"b{i}" for i in range(1, n + 1))
    endowments = []
    for m in range(1, n + 1):
        endowments.append(sum((m - 1 - i) * e for i, e in enumerate(endowments, 1)) + 1)
    amounts = {b: i * e for i, (b, e) in enumerate(zip(objects, endowments), 1)}
    return Instance(
        agents, dict(zip(agents, endowments)), objects, amounts,
        {(a, b): amounts[b] for a, b in zip(agents, objects)},
    )


def test_breakpoints_match_the_newton_tier_loop(corpus, equal_corpus):
    # The corpora mostly freeze in one or two tiers and have denominators of
    # at most 8; staircases and the sparse 12x12 and 40x40 instances split
    # deep trees, and the prime-denominator instances scale by large lcms.
    instances = corpus + equal_corpus + [staircase(n) for n in range(2, 25)]
    instances += [random_instance(seed, 12, 12, 0.2) for seed in range(150)]
    instances += [random_instance(seed, 40, 40, 0.06) for seed in range(30)]
    instances += [prime_denominator_instance(seed) for seed in range(40)]
    # Path-shaped split trees carry caps through n - 1 contractions, and
    # every object's demand equals its cap.
    instances += [path_tree_instance(n) for n in range(2, 31)]
    multi_tier = 0
    for inst in instances:
        profile = breakpoints(inst)
        assert profile == newton_breakpoints(inst)
        multi_tier += profile.k >= 6
    assert multi_tier >= 100


def test_single_agent_tiers_match_the_flow(monkeypatch, corpus):
    # Every one-agent node the split tree reaches certifies in closed form,
    # the only tier_capacity call made outside min_ratio; min_ratio's flow
    # must certify the same agent with the same capacity there.
    instances = corpus + [staircase(n) for n in range(2, 25)]
    instances += [random_instance(seed, 12, 12, 0.2) for seed in range(150)]
    instances += [path_tree_instance(n) for n in range(2, 31)]
    real_capacity, real_min_ratio = leximin.tier_capacity, leximin.min_ratio
    inside = []  # one entry per open min_ratio call
    nodes = []

    def tracked_min_ratio(*args):
        inside.append(None)
        try:
            return real_min_ratio(*args)
        finally:
            inside.pop()

    def compared(caps, totals):
        cap = real_capacity(caps, totals)
        if inside:
            return cap
        assert caps.keys() == totals.keys()
        # The leaf's agent demands exactly its totals on its objects.  A node
        # without demand entries has capacity 0 whichever agent it holds.
        agent = next(
            a for a in view.agents
            if all(view.demand.get((a, b)) == t for b, t in totals.items())
        )
        demand = {(agent, b): t for b, t in totals.items()}
        assert tracked_min_ratio([agent], caps, demand, totals, view.endowment) == (
            cap, view.endowment[agent], frozenset({agent})
        )
        exhausted = any(t > caps[b] for b, t in totals.items())
        nodes.append((len(totals), exhausted))
        return cap

    monkeypatch.setattr(leximin, "min_ratio", tracked_min_ratio)
    monkeypatch.setattr(leximin, "tier_capacity", compared)
    for inst in instances:
        view = leximin._scaled(inst)
        breakpoints(inst)
    # Leaves without demand, with several entries, and with and without
    # exhausted objects were all reached.
    assert len(nodes) >= 1000
    assert {(0, False), (1, True), (1, False)} <= set(nodes)
    assert max(entries for entries, _ in nodes) >= 3


def test_split_nodes_carry_their_demand_totals(monkeypatch, corpus, equal_corpus):
    # At every multi-agent node the carried totals are the per-object sums
    # of the node's demand entries, over exactly its cap keys.  A one-agent
    # leaf shows ``tier_capacity`` only its caps and totals: its totals are
    # its agent's entries on the objects that no slower tier exhausted.
    instances = corpus + equal_corpus + [staircase(n) for n in range(2, 25)]
    instances += [path_tree_instance(n) for n in range(2, 31)]
    instances += [random_instance(seed, 12, 12, 0.2) for seed in range(150)]
    real_capacity, real_min_ratio = leximin.tier_capacity, leximin.min_ratio
    inside = []  # one entry per open min_ratio call
    leaves = []
    splits = 0

    def tracked_min_ratio(agents, caps, demand, totals, endowments):
        nonlocal splits
        assert totals == object_totals(demand)
        assert totals.keys() == caps.keys()
        splits += 1
        inside.append(None)
        try:
            return real_min_ratio(agents, caps, demand, totals, endowments)
        finally:
            inside.pop()

    def tracked_capacity(caps, totals):
        assert totals.keys() == caps.keys()
        if not inside:
            leaves.append(frozenset(totals.items()))
        return real_capacity(caps, totals)

    monkeypatch.setattr(leximin, "min_ratio", tracked_min_ratio)
    monkeypatch.setattr(leximin, "tier_capacity", tracked_capacity)
    single = 0
    for inst in instances:
        leaves.clear()
        profile = breakpoints(inst)
        demand = leximin._scaled(inst).demand
        want, slower = [], set()
        for tier, exhausted in zip(profile.agent_tiers, profile.object_tiers):
            if len(tier) == 1:
                want.append(frozenset(
                    (b, d) for (a, b), d in demand.items() if a in tier and b not in slower
                ))
            slower |= exhausted
        assert Counter(leaves) == Counter(want), inst
        single += len(want)
    assert splits >= 1000 and single >= 1000


def test_split_tree_builds_no_rational(monkeypatch, corpus):
    # The split tree and the final flow run on ints alone: each tier's rate
    # is an int over one unit L, and L is the least such unit.
    instances = corpus + [staircase(n) for n in range(2, 25)]
    instances += [path_tree_instance(n) for n in range(2, 31)]
    instances += [prime_denominator_instance(seed) for seed in range(40)]
    views = [leximin._scaled(inst) for inst in instances]

    def forbidden(*args):
        raise AssertionError("the split tree built a Rational")

    solved = []
    monkeypatch.setattr(leximin, "Rational", forbidden)
    for view in views:
        tiers, unit = leximin._split_tree(view)
        leximin._final_flow(view, tiers, unit)
        solved.append((tiers, unit))
    monkeypatch.undo()
    for tiers, unit in solved:
        assert all(type(rate) is int for rate, *_ in tiers)
        assert math.lcm(*(int(Rational(rate, unit).denominator) for rate, *_ in tiers)) == unit
    assert max(unit for _, unit in solved) > 1


def test_split_tree_rejects_rates_that_do_not_increase(monkeypatch, tmp_path, capsys):
    # Two identical agents freeze together.  A false split of the first
    # gives both the same rate, which the rate-order self-check must catch.
    inst = Instance(("a1", "a2"), {"a1": 1, "a2": 1}, ("b",), {"b": 4},
                    {("a1", "b"): 2, ("a2", "b"): 2})
    real = leximin.min_ratio

    def false_split(agents, *args):
        cap, e, _ = real(agents, *args)
        return cap, e, frozenset({agents[0]})

    monkeypatch.setattr(leximin, "min_ratio", false_split)
    with pytest.raises(InternalCheckError, match="rates must strictly increase"):
        breakpoints(inst)
    path = tmp_path / "twins.json"
    save_instance(inst, path)
    assert cli.main(["allocate", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "rates must strictly increase" in err


def test_split_tree_rejects_tiers_that_miss_the_capped_supply(monkeypatch, tmp_path, capsys):
    # One agent demands 3 of an object with supply 2, so it absorbs the
    # capped supply 2 at rate 2.  An understated node capacity of 1 gives the
    # rate 1, which absorbs only 1; the final flow would saturate its source
    # edge, so only the absorption self-check catches it.
    inst = Instance(("a",), {"a": 1}, ("b",), {"b": 2}, {("a", "b"): 3})
    real = leximin.tier_capacity
    monkeypatch.setattr(leximin, "tier_capacity", lambda *args: real(*args) - 1)
    with pytest.raises(
        InternalCheckError, match="endowment-rate total 1 != capped supply 2 times the rate unit 1"
    ):
        breakpoints(inst)
    path = tmp_path / "short.json"
    save_instance(inst, path)
    # The search scales by the default grid's denominator 2 as well.
    for command, total, capped in (("allocate", 1, 2), ("manipulate", 3, 4)):
        assert cli.main([command, str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and (
            f"internal check failed: endowment-rate total {total} != capped supply {capped}"
        ) in err


@pytest.mark.parametrize(
    "make, tiers, flows",
    [
        # Every staircase tier is one agent, so only the n - 1 splits flow.
        pytest.param(lambda: staircase(200), 200, 200, id="staircase-200"),
        pytest.param(lambda: random_instance(0, 200, 200, 0.02), 101, 141, id="sparse-200"),
        # More tiers than Python's recursion limit of 1000.
        pytest.param(lambda: staircase(1100), 1100, 1100, id="staircase-1100"),
        pytest.param(lambda: random_instance(2, 8, 8, 0.9), 1, 2, id="dense-one-tier"),
    ],
)
def test_solve_takes_exactly_two_flows_per_tier(monkeypatch, make, tiers, flows):
    # 2k - 1 split-tree nodes, one flow each except the s single-agent
    # leaves, which certify in closed form, plus the final allocation flow:
    # 2k - s flows.
    inst = make()
    calls = []
    real = leximin.max_flow

    def counting(network):
        calls.append(None)
        return real(network)

    monkeypatch.setattr(leximin, "max_flow", counting)
    _, profile = lexicographic_allocation(inst)
    assert profile.k == tiers
    single = sum(len(tier) == 1 for tier in profile.agent_tiers)
    assert len(calls) == 2 * tiers - single == flows


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: staircase(6), id="staircase-6"),
        # Fractional endowments, supplies and demands, in four tiers.
        pytest.param(lambda: random_instance(0), id="random-0"),
        pytest.param(
            lambda: Instance(
                ("a1", "a2", "a3"),
                {"a1": Rational(1, 7), "a2": Rational(2, 9), "a3": Rational(5, 11)},
                ("b1", "b2"),
                {"b1": Rational(5, 11), "b2": Rational(1, 7)},
                {("a1", "b1"): Rational(2, 9), ("a2", "b1"): Rational(1, 7),
                 ("a2", "b2"): Rational(5, 11), ("a3", "b2"): Rational(2, 9)},
            ),
            id="coprime-denominators",
        ),
    ],
)
def test_split_networks_are_integral(monkeypatch, make):
    # The split tree runs on ints: a sum that starts from a Rational zero
    # would turn every later capacity back into a Rational, with the same
    # outputs.
    inst = make()
    inside = []  # one entry per open min_ratio call
    capacities = []
    real_min_ratio, real_max_flow = leximin.min_ratio, leximin.max_flow

    def tracked_min_ratio(*args):
        inside.append(None)
        try:
            return real_min_ratio(*args)
        finally:
            inside.pop()

    def recording(network):
        if inside:
            capacities.extend(c for _, _, c in network.edges)
        return real_max_flow(network)

    monkeypatch.setattr(leximin, "min_ratio", tracked_min_ratio)
    monkeypatch.setattr(leximin, "max_flow", recording)
    _, profile = lexicographic_allocation(inst)
    assert profile.k >= 2
    assert capacities
    assert {type(c) for c in capacities} == {int}


def test_split_tree_deeper_than_the_stack_allows(monkeypatch):
    # The worklist keeps the stack flat: a solver that recursed per tree
    # level would exceed a limit of 100 frames above the caller.
    inst = path_tree_instance(200)
    sizes = []
    real = leximin.min_ratio

    def recording(agents, *args):
        sizes.append(len(agents))
        return real(agents, *args)

    monkeypatch.setattr(leximin, "min_ratio", recording)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        profile = breakpoints(inst)
    finally:
        sys.setrecursionlimit(limit)
    # Only the 199 splits flow: each peels off one agent, a flow-free leaf.
    assert sorted(sizes) == list(range(2, 201))
    assert profile.lambdas == tuple(Rational(i) for i in range(1, 201))


def test_split_rejects_a_cut_above_the_source_capacity(monkeypatch):
    # The split network is scaled by its node's endowment total, so a fixed
    # excess could stay under the source total.  The sum of every edge
    # capacity exceeds it at any scale.
    inst = breakpoint_example()
    real = leximin.source_heavy_min_cut

    def inflated(network, flow):
        source_side = real(network, flow)
        flow.value += sum(c for _, _, c in network.edges)
        return source_side

    monkeypatch.setattr(leximin, "source_heavy_min_cut", inflated)
    with pytest.raises(InternalCheckError, match="exceeds the source capacity"):
        breakpoints(inst)


def test_split_rejects_a_non_certifying_cut_that_keeps_every_agent(monkeypatch):
    # One tier: the real cut certifies, with every agent on the source side.
    inst = si_misreport_instance()
    real = leximin.source_heavy_min_cut

    def deflated(network, flow):
        source_side = real(network, flow)
        flow.value -= 1
        return source_side

    monkeypatch.setattr(leximin, "source_heavy_min_cut", deflated)
    with pytest.raises(InternalCheckError, match="must split the agents, got 3 of 3"):
        breakpoints(inst)


def test_breakpoints_hand_example():
    profile = breakpoints(breakpoint_example())
    assert profile.k == 2
    assert profile.lambdas == (ONE, Rational(2))
    assert profile.agent_tiers == (frozenset({"a1"}), frozenset({"a2"}))
    assert profile.object_tiers == (frozenset(), frozenset({"b"}))
    assert profile.per_agent == {"a1": ONE, "a2": Rational(2)}
    assert profile.tier_of("a1") == 0 and profile.tier_of("a2") == 1
    with pytest.raises(KeyError):
        profile.tier_of("nobody")


def test_breakpoints_single_tier_family():
    profile = breakpoints(si_bound_instance(2))
    assert profile.k == 1
    assert profile.lambdas == (Rational(3, 2),)
    assert profile.agent_tiers == (frozenset({"a1", "a2"}),)


def test_breakpoints_all_zero_demands():
    inst = Instance(("a", "b"), {"a": 1, "b": 2}, ("o",), {"o": 4}, {})
    profile = breakpoints(inst)
    assert profile.lambdas == (ZERO,)
    assert profile.agent_tiers == (frozenset({"a", "b"}),)


@pytest.mark.parametrize(
    "inst, lambdas, agent_tiers, object_tiers",
    [
        pytest.param(
            # a1's demand on b equals its cap: b stays open at cap 0, and
            # a2, demanding b later, exhausts it.
            Instance(
                ("a1", "a2"), {"a1": 1, "a2": 1}, ("b", "c"), {"b": 1, "c": 5},
                {("a1", "b"): 1, ("a2", "b"): 1, ("a2", "c"): 5},
            ),
            (1, 5), [{"a1"}, {"a2"}], [set(), {"b"}],
            id="demand-equals-cap",
        ),
        pytest.param(
            # z has no supply: a1 freezes at rate 0 and exhausts it.
            Instance(
                ("a1", "a2"), {"a1": 1, "a2": 1}, ("z", "c"), {"z": 0, "c": 2},
                {("a1", "z"): 1, ("a2", "c"): 2},
            ),
            (0, 2), [{"a1"}, {"a2"}], [{"z"}, set()],
            id="zero-supply",
        ),
        pytest.param(
            # The root splits at rate 5 into T = {a1, a2}, whose joint demand
            # 4 on b exceeds its cap 3, and {a3}, which never sees b.  T then
            # splits: a1 takes 2 of b at rate 2, and a2's 2 overruns the 1
            # left, so a2's tier exhausts b.
            Instance(
                ("a1", "a2", "a3"), {"a1": 1, "a2": 1, "a3": 1}, ("b", "p2", "p3"),
                {"b": 3, "p2": 2, "p3": 10},
                {("a1", "b"): 2, ("a2", "b"): 2, ("a2", "p2"): 2,
                 ("a3", "b"): 1, ("a3", "p3"): 10},
            ),
            (2, 3, 10), [{"a1"}, {"a2"}, {"a3"}], [set(), {"b"}, set()],
            id="joint-over-demand",
        ),
    ],
)
def test_over_demand_boundaries(inst, lambdas, agent_tiers, object_tiers):
    profile = breakpoints(inst)
    assert profile.lambdas == tuple(Rational(lam) for lam in lambdas)
    assert profile.agent_tiers == tuple(frozenset(t) for t in agent_tiers)
    assert profile.object_tiers == tuple(frozenset(t) for t in object_tiers)
    assert profile == oracle_breakpoints(inst)


def test_breakpoints_rejects_invalid_instance():
    with pytest.raises(InvalidInstanceError):
        breakpoints(Instance(("a",), {"a": 0}, (), {}, {}))


@pytest.mark.parametrize("solve", [breakpoints, lexicographic_allocation])
def test_invalid_input_stays_invalid_under_a_broken_flow(monkeypatch, solve):
    # Validation comes first, so invalid input is bad input even when the
    # flows would fail.
    def broken(network):
        raise ValueError("flow on a broken network (injected)")

    monkeypatch.setattr(leximin, "max_flow", broken)
    negative = si_bound_instance(2)
    negative = Instance(negative.agents, negative.endowment, negative.objects,
                        {**negative.supply, "b1": Rational(-1)}, negative.demand)
    for inst in (Instance(("a",), {"a": 0}, (), {}, {}), negative):
        with pytest.raises(InvalidInstanceError):
            solve(inst)


@pytest.mark.parametrize("solve", [breakpoints, lexicographic_allocation])
def test_value_error_on_valid_input_is_an_internal_error(monkeypatch, solve):
    # Past validation the input is known good, so a ValueError from a split
    # flow or the final flow is a solver bug.
    calls = []

    def broken(network):
        calls.append(1)
        raise ValueError("flow on a broken network (injected)")

    monkeypatch.setattr(leximin, "max_flow", broken)
    with pytest.raises(InternalCheckError, match="solver raised ValueError on valid input"
                       ": flow on a broken network"):
        solve(si_bound_instance(2))
    assert calls == [1]
    # One agent takes no split flow: only the allocation's final flow runs.
    alone = Instance(("a",), {"a": 1}, ("b",), {"b": 2}, {("a", "b"): 3})
    calls.clear()
    if solve is breakpoints:
        assert solve(alone).lambdas == (Rational(2),)
    else:
        with pytest.raises(InternalCheckError, match="solver raised ValueError on valid input"):
            solve(alone)
    assert calls == [1] * (solve is lexicographic_allocation)


def test_allocation_hand_example():
    inst = si_bound_instance(2)
    allocation, profile = lexicographic_allocation(inst)
    assert allocation.amount == {
        ("a1", "b1"): Rational(1, 2),
        ("a1", "b2"): ONE,
        ("a2", "b1"): Rational(3, 2),
    }
    assert utilities(inst, allocation)["a1"] == Rational(3, 2)
    assert utilities(inst, allocation)["a2"] == Rational(3, 2)
    assert profile.lambdas == (Rational(3, 2),)


def test_allocation_single_agent_caps_at_demand():
    inst = Instance(("a",), {"a": 1}, ("b",), {"b": 10}, {("a", "b"): 4})
    allocation, _ = lexicographic_allocation(inst)
    assert allocation.amount == {("a", "b"): Rational(4)}


def test_allocation_uniform_burst_family():
    inst = burst_demand_instance(3)
    allocation, profile = lexicographic_allocation(inst)
    for a in inst.agents:
        assert utilities(inst, allocation)[a] == Rational(3)
    assert profile.lambdas == (Rational(3),)


def test_allocation_empty_instance():
    inst = Instance((), {}, ("b",), {"b": 2}, {})
    allocation, profile = lexicographic_allocation(inst)
    assert allocation.amount == {}
    assert profile.k == 0


def test_utilities_match_rates_on_random_instances(corpus):
    for inst in corpus[:80]:
        allocation, profile = lexicographic_allocation(inst)
        for a in inst.agents:
            assert utilities(inst, allocation)[a] == inst.endowment[a] * profile.per_agent[a]
        for (a, b), amount in allocation.amount.items():
            assert amount <= inst.demand_between(a, b)
        total = sum(
            (utilities(inst, allocation)[a] for a in inst.agents), ZERO
        )
        assert total == sum(capped_supply(inst).values(), ZERO)


def test_profile_invariants_on_random_instances(corpus):
    for inst in corpus[:80]:
        profile = breakpoints(inst)
        assert profile.lambdas[:1] == () or profile.lambdas[0] >= ZERO
        for i in range(1, profile.k):
            assert profile.lambdas[i - 1] < profile.lambdas[i]
        # The agent tiers partition the agents; the object tiers are disjoint.
        assert all(profile.agent_tiers)
        assert sum(map(len, profile.agent_tiers)) == len(inst.agents)
        assert frozenset().union(*profile.agent_tiers) == frozenset(inst.agents)
        exhausted = frozenset().union(*profile.object_tiers)
        assert sum(map(len, profile.object_tiers)) == len(exhausted)
        capped = capped_supply(inst)
        previous_agents, previous_objects = frozenset(), frozenset()
        for i, (fresh, fresh_objects) in enumerate(zip(profile.agent_tiers, profile.object_tiers)):
            previous_demand = object_totals(inst.demand, previous_agents)
            caps = {
                b: capped[b] - previous_demand.get(b, ZERO)
                for b in inst.objects
                if b not in previous_objects
            }
            assert all(c >= ZERO for c in caps.values())
            fresh_demand = object_totals(inst.demand, fresh)
            expected_objects = {
                b for b in caps if fresh_demand.get(b, ZERO) > caps[b]
            }
            assert fresh_objects == expected_objects
            for a in fresh:
                assert profile.per_agent[a] == profile.lambdas[i]
                assert profile.tier_of(a) == i
            previous_agents |= fresh
            previous_objects |= fresh_objects


def test_profile_stores_each_tier_once():
    # staircase(n) has n tiers; cumulative sets would hold about n^2 / 2 agents.
    inst = staircase(1000)
    profile = breakpoints(inst)
    assert profile.k == 1000
    exhausted = frozenset().union(*profile.object_tiers)
    stored = sum(map(len, profile.agent_tiers)) + sum(map(len, profile.object_tiers))
    assert stored == len(inst.agents) + len(exhausted)


def test_multi_tier_profiles_match_the_oracle():
    # Default random instances mostly freeze in one or two tiers; staircases
    # and sparse 10x10 instances run the tier loop for 3-11 tiers.
    instances = [staircase(n) for n in range(2, 12)]
    instances += [random_instance(seed, 10, 10, 0.25) for seed in range(40)]
    tier_counts = []
    for inst in instances:
        allocation, profile = lexicographic_allocation(inst)
        expected = oracle_breakpoints(inst)
        assert profile == expected
        for a in inst.agents:
            assert utilities(inst, allocation)[a] == inst.endowment[a] * expected.per_agent[a]
        tier_counts.append(profile.k)
    assert sorted(tier_counts)[len(tier_counts) // 2] >= 6


LARGE_DENOMINATORS = (2**61 - 1, 10**30, 10**6 + 3)


def large_denominator_instance(seed):
    """Seeded instance of 2-8 agents whose supplies, demands and endowments
    mix the coprime denominators 2^61 - 1, 10^30 and 10^6 + 3, so the final
    allocation flow's scale is their product."""
    rng = random.Random(seed)

    def draw(low):
        den = rng.choice(LARGE_DENOMINATORS)
        return Rational(rng.randint(low * den, 9 * den), den)

    agents = tuple(f"a{i}" for i in range(1, rng.randint(2, 8) + 1))
    objects = tuple(f"b{j}" for j in range(1, rng.randint(1, 6) + 1))
    demand = {(a, b): draw(1) for a in agents for b in objects if rng.random() < 0.4}
    return Instance(
        agents, {a: draw(1) for a in agents}, objects, {b: draw(0) for b in objects}, demand
    )


def test_allocation_scales_large_coprime_denominators():
    tier_counts = []
    for seed in range(40):
        inst = large_denominator_instance(seed)
        allocation, profile = lexicographic_allocation(inst)
        expected = oracle_breakpoints(inst)
        for a in inst.agents:
            assert utilities(inst, allocation)[a] == inst.endowment[a] * expected.per_agent[a]
        assert structure_check(inst, allocation, profile).passed
        assert is_frugal(inst, allocation).passed
        assert is_nw(inst, allocation).passed
        tier_counts.append(profile.k)
    assert max(tier_counts) >= 3


def test_input_order_never_changes_utilities(corpus):
    for inst in corpus[:40]:
        base = {
            a: utilities(inst, lexicographic_allocation(inst)[0])[a] for a in inst.agents
        }
        flipped = Instance(
            agents=tuple(reversed(inst.agents)),
            endowment=inst.endowment,
            objects=tuple(reversed(inst.objects)),
            supply=inst.supply,
            demand=inst.demand,
        )
        allocation, _ = lexicographic_allocation(flipped)
        for a in inst.agents:
            assert utilities(flipped, allocation)[a] == base[a]


def test_structure_check_passes_on_mechanism_output(corpus):
    for inst in corpus[:80]:
        allocation, profile = lexicographic_allocation(inst)
        report = structure_check(inst, allocation, profile)
        assert report.passed, report.witness


def test_structure_check_flags_unserved_fast_agent():
    inst = breakpoint_example()
    _, profile = lexicographic_allocation(inst)
    starved = Allocation({("a1", "b"): Rational(1, 2), ("a2", "b"): Rational(5, 2)})
    report = structure_check(inst, starved, profile)
    assert not report.passed
    assert report.witness.subject == ("a1", "b")
    assert "served in full" in report.witness.note


def test_structure_check_flags_unconsumed_exhausted_object():
    inst = breakpoint_example()
    _, profile = lexicographic_allocation(inst)
    wasteful = Allocation({("a1", "b"): ONE, ("a2", "b"): ONE})
    report = structure_check(inst, wasteful, profile)
    assert not report.passed
    assert "not fully consumed" in report.witness.note


def test_structure_check_flags_late_agent_on_early_object():
    inst = Instance(
        ("a1", "a2"), {"a1": 1, "a2": 1}, ("b1", "b2"), {"b1": 1, "b2": 4},
        {("a1", "b1"): 2, ("a2", "b1"): 2, ("a2", "b2"): 4},
    )
    allocation, profile = lexicographic_allocation(inst)
    assert profile.object_tiers[0] == frozenset({"b1"})
    poached = Allocation(
        {("a1", "b1"): Rational(1, 2), ("a2", "b1"): Rational(1, 2), ("a2", "b2"): Rational(4)}
    )
    report = structure_check(inst, poached, profile)
    assert not report.passed
    assert "exhausted object" in report.witness.note


def test_structure_check_flags_wrong_rates():
    inst = breakpoint_example()
    allocation, profile = lexicographic_allocation(inst)
    inflated = dataclasses.replace(
        profile, lambdas=(profile.lambdas[0] + ONE, profile.lambdas[1] + ONE)
    )
    report = structure_check(inst, allocation, inflated)
    assert not report.passed
    assert report.witness.subject == ("tier 1",)


def test_absorption_identity_hand_values():
    # Tier 1 of the hand example: rate times endowment is 1, which is the
    # frozen agent's demand on the still-open object (nothing exhausted yet).
    inst = breakpoint_example()
    profile = breakpoints(inst)
    assert profile.lambdas[0] * inst.endowment["a1"] == ONE
    assert profile.object_tiers[0] == frozenset()
    assert object_totals(inst.demand, profile.agent_tiers[0]) == {"b": ONE}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_mechanism_internal_identities(seed):
    inst = random_instance(seed)
    allocation, profile = lexicographic_allocation(inst)
    assert structure_check(inst, allocation, profile).passed
    vector = utility_vector(inst, allocation)
    assert vector.sorted_normalized == tuple(sorted(profile.per_agent.values()))
