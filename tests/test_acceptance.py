"""Acceptance gate: ten criteria, each one test, each at zero tolerance.

Every comparison below is exact rational equality — no epsilon anywhere.  Each
test prints a single ``criterion N: PASS/FAIL`` line (visible with ``-s`` or on
failure) and then asserts, so a plain ``pytest -v`` run doubles as the
acceptance report.

The dominance sweep (criterion 4) runs on the equal-endowment corpus: with one
shared endowment, sorted normalized utility vectors are comparable prefix by
prefix and the mechanism's output must dominate every sampled rival.  With
unequal endowments that prefix comparison is not a sound requirement (see
``test_properties.test_unequal_endowments_break_prefix_dominance``), so all
other criteria use the heterogeneous corpus and the leximin order.
"""

import json
import time

from leximinflow.core import (
    Allocation,
    Instance,
    capped_supply,
    utility,
    utility_vector,
)
from leximinflow.fileio import save_instance
from leximinflow.generators import (
    burst_demand_instance,
    random_instance,
    si_bound_instance,
    si_misreport_instance,
)
from leximinflow.harness import (
    AGENT_REMOVAL,
    ENDOWMENT_DECREASE,
    check_pm,
    check_rm,
    check_substructure,
    search_manipulation,
)
from leximinflow.leximin import lexicographic_allocation, structure_check
from leximinflow.oracle import oracle_breakpoints, oracle_mmf_si, random_frugal_allocation
from leximinflow.properties import (
    envy_report,
    is_frugal,
    is_nw,
    lorenz_dominates,
    si_ratio,
)
from leximinflow.rational import Rational, ZERO, parse_rational
from leximinflow import cli


HALF = Rational(1, 2)


def _verdict(label: str, ok: bool, extra: str = "") -> None:
    suffix = f" ({extra})" if extra else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)
    assert ok, f"{label} failed{suffix}"


def _solve_all(instances):
    return [lexicographic_allocation(inst) for inst in instances]


def test_criterion_01_oracle_equivalence(corpus):
    """Solver breakpoints equal the subset-enumeration oracle on 500 instances."""
    start = time.monotonic()
    mismatches = 0
    for inst in corpus:
        _, profile = lexicographic_allocation(inst)
        expected = oracle_breakpoints(inst)
        if profile != expected:
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(
        "criterion 1 (oracle equivalence, 500 instances)",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_rate_identity_and_absorption(corpus):
    """u(a) = e(a) * rate(a) for every agent; total utility = total capped supply."""
    bad = 0
    for inst in corpus:
        allocation, profile = lexicographic_allocation(inst)
        total = ZERO
        for a in inst.agents:
            u = utility(allocation, inst, a)
            if u != inst.endowment[a] * profile.per_agent[a]:
                bad += 1
            total += u
        if total != sum(capped_supply(inst).values(), ZERO):
            bad += 1
    _verdict("criterion 2 (rate identity and full absorption)", bad == 0, f"{bad} violations")


def test_criterion_03_fairness_properties(corpus):
    """Frugal, non-wasteful, envy-free, and at least half the entitlement."""
    bad = 0
    for inst in corpus:
        allocation, _ = lexicographic_allocation(inst)
        if not is_frugal(inst, allocation).passed:
            bad += 1
        if not is_nw(inst, allocation).passed:
            bad += 1
        if not envy_report(inst, allocation).passed:
            bad += 1
        ratio = si_ratio(inst, allocation).ratio
        if ratio is not None and ratio < HALF:
            bad += 1
    _verdict("criterion 3 (frugal, non-wasteful, envy-free, half entitlement)", bad == 0,
             f"{bad} violations")


def test_criterion_04_lorenz_dominance(equal_corpus):
    """Output Lorenz-dominates 1000 sampled rival allocations per instance."""
    bad = 0
    for seed, inst in enumerate(equal_corpus):
        reference = utility_vector(inst, lexicographic_allocation(inst)[0])
        for k in range(1000):
            rival = random_frugal_allocation(inst, seed * 1_000_003 + k)
            if not lorenz_dominates(reference, utility_vector(inst, rival)):
                bad += 1
    _verdict(
        "criterion 4 (Lorenz dominance, 500 equal-endowment instances x 1000 samples)",
        bad == 0,
        f"{bad} dominated prefixes missed",
    )


def test_criterion_05_structure_certificate(corpus):
    """The tier-structure certificate verifies on every instance."""
    bad = [
        inst
        for inst in corpus
        if not structure_check(inst, *lexicographic_allocation(inst)).passed
    ]
    _verdict("criterion 5 (structure certificate)", not bad, f"{len(bad)} failures")


def test_criterion_06_monotonicity(corpus):
    """Supply increases never hurt; endowment shrinks and departures never
    hurt the unchanged agents: 10 perturbations of each kind per instance."""
    bad = 0
    for seed, inst in enumerate(corpus):
        if not check_rm(inst, trials=10, seed=seed).passed:
            bad += 1
        if not check_pm(inst, ENDOWMENT_DECREASE, trials=5, seed=seed).passed:
            bad += 1
        if not check_pm(inst, AGENT_REMOVAL, trials=5, seed=seed).passed:
            bad += 1
    _verdict("criterion 6 (resource and population monotonicity)", bad == 0, f"{bad} failures")


def test_criterion_07_substructure(corpus):
    """Restricting the output to any agent subset stays optimal: 5 subsets each."""
    bad = 0
    for seed, inst in enumerate(corpus):
        allocation, _ = lexicographic_allocation(inst)
        if not check_substructure(inst, allocation, trials=5, seed=seed).passed:
            bad += 1
    _verdict("criterion 7 (substructure optimality)", bad == 0, f"{bad} failures")


def test_criterion_08_manipulation_search(corpus):
    """No profitable misreport for coalitions of size 1 and 2 over the default
    grid on 100 instances — grid-bounded evidence, not proof."""
    found = 0
    runs = 0
    for inst in corpus[:100]:
        for size in (1, 2):
            if size > len(inst.agents):
                continue
            result = search_manipulation(inst, coalition_size=size, budget=300)
            runs += result.runs
            if result.counterexample is not None:
                found += 1
    _verdict(
        "criterion 8 (strategyproofness search; grid-bounded evidence, not proof)",
        found == 0,
        f"{found} counterexamples in {runs} mechanism runs",
    )


def test_criterion_09_exact_reproductions():
    """The three named demonstrations reproduce their exact numbers."""
    ok = True
    details = []

    for n in (3, 5):
        inst = burst_demand_instance(n)
        allocation, _ = lexicographic_allocation(inst)
        values = {utility(allocation, inst, a) for a in inst.agents}
        ok &= values == {Rational(n)}
        details.append(f"burst n={n}: utilities {sorted(str(v) for v in values)}")

    expected_ratio = {2: Rational(3, 4), 10: Rational(11, 20), 100: Rational(101, 200)}
    for n, want in expected_ratio.items():
        inst = si_bound_instance(n)
        got = si_ratio(inst, lexicographic_allocation(inst)[0]).ratio
        ok &= got == want
        details.append(f"squeeze n={n}: ratio {got}")

    inst = si_misreport_instance()
    inflated = Instance(
        agents=inst.agents,
        endowment=inst.endowment,
        objects=inst.objects,
        supply=inst.supply,
        demand={**inst.demand, ("a1", "b2"): Rational(2)},
    )
    truthful = utility(oracle_mmf_si(inst)[0], inst, "a1")
    misreported = utility(oracle_mmf_si(inflated)[0], inst, "a1")
    ok &= truthful == Rational(3)
    ok &= misreported == Rational(4)
    details.append(f"reference rule: {truthful} -> {misreported}")

    allocation, _ = lexicographic_allocation(inflated)
    after = utility(allocation, inst, "a1")
    ok &= after == Rational(3)
    details.append(f"main mechanism under the same misreport: 3 -> {after}")

    _verdict("criterion 9 (exact reproductions)", ok, "; ".join(details))


def test_criterion_10_scale_smoke(tmp_path):
    """A dense 50x50 instance allocates through the CLI in under 10 seconds
    and the emitted JSON passes the rate identity and fairness checks."""
    inst = random_instance(seed=4242, num_agents=50, num_objects=50, density=1.0)
    path = tmp_path / "dense.json"
    save_instance(inst, str(path))

    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    start = time.monotonic()
    with redirect_stdout(buffer):
        code = cli.main(["allocate", str(path), "--output", "json"])
    elapsed = time.monotonic() - start
    data = json.loads(buffer.getvalue())

    allocation = Allocation(
        {
            (row["agent"], row["object"]): parse_rational(row["amount"])
            for row in data["allocation"]
        }
    )
    ok = code == 0 and elapsed < 10.0
    for row in data["agents"]:
        u = utility(allocation, inst, row["id"])
        ok &= u == parse_rational(row["utility"])
        ok &= u == parse_rational(row["endowment"]) * parse_rational(row["rate"])
    total = sum(
        (utility(allocation, inst, a) for a in inst.agents), ZERO
    )
    ok &= total == sum(capped_supply(inst).values(), ZERO)
    ok &= is_frugal(inst, allocation).passed
    ok &= is_nw(inst, allocation).passed
    ok &= envy_report(inst, allocation).passed
    ratio = si_ratio(inst, allocation).ratio
    ok &= ratio is None or ratio >= HALF
    _verdict("criterion 10 (50x50 scale smoke)", ok, f"{elapsed:.2f}s, exit {code}")
