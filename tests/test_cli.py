"""End-to-end command-line tests: output shape, exit codes, determinism."""

import hashlib
import json
import re

import pytest

from conftest import breakpoint_example, hand_made_flow, lower_search_baseline, staircase
from leximinflow import cli, leximin
from leximinflow.core import Allocation, Instance, InternalCheckError, utilities, utility_vector
from leximinflow.fileio import parse_instance, save_instance, serialize_instance
from leximinflow.generators import (
    burst_demand_instance,
    random_instance,
    si_bound_instance,
    si_misreport_instance,
)
from leximinflow.oracle import random_frugal_allocation
from leximinflow.rational import Rational, format_rational, parse_rational


@pytest.fixture()
def squeeze_path(tmp_path):
    path = tmp_path / "squeeze.json"
    save_instance(si_bound_instance(2), str(path))
    return str(path)


@pytest.fixture()
def misreport_path(tmp_path):
    path = tmp_path / "misreport.json"
    save_instance(si_misreport_instance(), str(path))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- allocate


def test_allocate_table(squeeze_path, capsys):
    code, out, err = run(capsys, ["allocate", squeeze_path])
    assert code == 0 and err == ""
    assert "3/2" in out  # the shared first-tier rate
    assert "breakpoints: 3/2" in out
    assert "entitlement ratio: 3/4" in out
    assert "frugal=pass" in out and "non-wasteful=pass" in out and "envy-free=pass" in out


def test_allocate_json_is_consistent(squeeze_path, capsys):
    code, out, err = run(capsys, ["allocate", squeeze_path, "--output", "json"])
    assert code == 0
    data = json.loads(out)
    for row in data["agents"]:
        endowment = parse_rational(row["endowment"])
        rate = parse_rational(row["rate"])
        assert parse_rational(row["utility"]) == endowment * rate
        assert parse_rational(row["normalized"]) == rate
    assert data["breakpoints"] == ["3/2"]
    assert data["entitlements"]["ratio"] == "3/4"
    assert all(data["properties"].values())
    # every rational string is already in canonical lowest-terms form
    for row in data["allocation"]:
        s = row["amount"]
        assert format_rational(parse_rational(s)) == s


def test_allocate_json_reports_each_tier_once(tmp_path, capsys):
    path = tmp_path / "tiers.json"
    save_instance(breakpoint_example(), str(path))
    code, out, err = run(capsys, ["allocate", str(path), "--output", "json"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["tiers"] == [
        {"rate": "1", "agents": ["a1"], "objects": []},
        {"rate": "2", "agents": ["a2"], "objects": ["b"]},
    ]
    assert {row["id"]: row["tier"] for row in data["agents"]} == {"a1": 1, "a2": 2}
    assert data["breakpoints"] == ["1", "2"]


# sha256 of the concatenated stdout below, recorded with the edge-list flow
# core that the bipartite one replaced, so the two print the same bytes.
ALLOCATE_JSON_DIGEST = "b488c46585b49efbe229bc4b6fa4e84cbf8498c0ed995985e79263f8ff65616c"


def reversed_order(inst: Instance) -> Instance:
    """The instance with its agents and objects listed in reverse, so that
    its file lists the demand entries out of (agent, object) order."""
    return Instance(
        inst.agents[::-1], inst.endowment, inst.objects[::-1], inst.supply, inst.demand
    )


def digest_instances(corpus):
    """Dense and sparse random instances, also in reverse order, the
    SI-bound and burst families, staircases with 2-30 tiers, and a corpus
    slice."""
    dense = [random_instance(s, 8, 8, 0.9) for s in range(20)]
    sparse = [random_instance(s, 7, 7, 2.5 / 7) for s in range(30)]
    return (
        dense
        + [reversed_order(inst) for inst in dense + sparse]
        + [si_bound_instance(n) for n in range(6, 18)]
        + [burst_demand_instance(n) for n in range(4, 10)]
        + sparse
        + [staircase(n) for n in range(2, 31)]
        + corpus[:100]
    )


def test_allocate_json_bytes_are_pinned(corpus, tmp_path, capsys):
    # The printed allocation is one optimal allocation among many: it
    # depends on the final flow's arc order.  This digest pins the bytes of
    # every ``allocate --output json`` below, allocation rows included.
    digest = hashlib.sha256()
    path = tmp_path / "instance.json"
    for inst in digest_instances(corpus):
        save_instance(inst, str(path))
        code, out, err = run(capsys, ["allocate", str(path), "--output", "json"])
        assert code == 0 and err == ""
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == ALLOCATE_JSON_DIGEST


def test_allocate_empty_instance(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"version": 1, "agents": [], "objects": [], "demands": []}\n')
    code, out, err = run(capsys, ["allocate", str(path)])
    assert code == 0
    assert "(empty)" in out
    assert "breakpoints: (none)" in out


def test_allocate_rejects_zero_denominator(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"version": 1, "agents": [{"id": "a", "endowment": "1/0"}],'
        ' "objects": [], "demands": []}\n'
    )
    code, out, err = run(capsys, ["allocate", str(path)])
    assert code == 2
    assert "agents[0].endowment" in err


def test_allocate_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, ["allocate", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in err


def test_allocate_short_flow_is_an_internal_error(squeeze_path, capsys, monkeypatch):
    def short(network):
        return hand_made_flow(network, [0] * len(network.edges), 0)

    monkeypatch.setattr(leximin, "max_flow", short)
    code, out, err = run(capsys, ["allocate", squeeze_path])
    assert code == 3 and out == ""
    assert "internal check failed: flow is not maximum" in err


def test_allocate_unsaturated_final_flow_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # One agent takes no split flow, so the only flow is the final one: a
    # zero flow leaves its source and capped-supply edges unsaturated.
    path = tmp_path / "one.json"
    save_instance(Instance(("a",), {"a": 1}, ("b",), {"b": 2}, {("a", "b"): 3}), str(path))

    def zero(network):
        return hand_made_flow(network, [0] * len(network.edges), 0)

    monkeypatch.setattr(leximin, "max_flow", zero)
    code, out, err = run(capsys, ["allocate", str(path)])
    assert code == 3 and out == ""
    assert "internal check failed: lexicographic flow value 0 != endowment-rate total 2" in err


@pytest.mark.parametrize("command", ["allocate", "audit", "manipulate"])
def test_solver_value_error_is_an_internal_error(squeeze_path, capsys, monkeypatch, command):
    # The instance is already validated when the solver runs, so a
    # ValueError there is a solver bug, not bad input.
    def broken(network):
        raise ValueError("flow on a broken network (injected)")

    monkeypatch.setattr(leximin, "max_flow", broken)
    code, out, err = run(capsys, [command, squeeze_path])
    assert code == 3 and out == ""
    assert "internal" in err and "flow on a broken network (injected)" in err


def over_demand(monkeypatch):
    """Make the mechanism hand a1 100 units of b2 beyond its demand."""
    real = cli.lexicographic_allocation

    def greedy(instance):
        allocation, profile = real(instance)
        extra = instance.demand[("a1", "b2")] + 100
        return Allocation({**allocation.amount, ("a1", "b2"): extra}), profile

    monkeypatch.setattr(cli, "lexicographic_allocation", greedy)


def test_allocate_non_frugal_output_fails(squeeze_path, capsys, monkeypatch):
    over_demand(monkeypatch)
    code, out, err = run(capsys, ["allocate", squeeze_path])
    assert code == 1 and err == ""
    assert "frugal=FAIL" in out and "non-wasteful=FAIL" in out


@pytest.mark.parametrize("output", ["table", "json"])
def test_allocate_takes_two_utility_passes(squeeze_path, capsys, monkeypatch, output):
    # si_ratio's pass also gives the agent rows; envy_report keeps its own.
    passes = []

    def counted(instance, allocation):
        passes.append(1)
        return utilities(instance, allocation)

    monkeypatch.setattr("leximinflow.core.utilities", counted)
    monkeypatch.setattr("leximinflow.properties.utilities", counted)
    code, out, err = run(capsys, ["allocate", squeeze_path, "--output", output])
    assert code == 0 and err == ""
    assert len(passes) == 2


def test_allocate_rejects_invalid_instance(tmp_path, capsys):
    path = tmp_path / "invalid.json"
    path.write_text(
        '{"version": 1, "agents": [{"id": "a", "endowment": "0"}],'
        ' "objects": [], "demands": []}\n'
    )
    code, out, err = run(capsys, ["allocate", str(path)])
    assert code == 2
    assert "strictly positive" in err


# ------------------------------------------------------------------- audit


def test_audit_all_properties_pass(misreport_path, capsys):
    code, out, err = run(capsys, ["audit", misreport_path, "--samples", "25"])
    assert code == 0, err
    for name in ("frugal", "non-wasteful", "envy-free", "si", "lorenz", "structure", "substructure"):
        assert f"{name}: pass" in out


def test_audit_sample_skip(misreport_path, capsys):
    code, out, err = run(capsys, ["audit", misreport_path, "--samples", "0"])
    assert code == 0
    assert "lorenz: skipped (0 samples requested)" in out


def test_audit_json_shape(misreport_path, capsys):
    code, out, err = run(
        capsys,
        ["audit", misreport_path, "--samples", "5", "--seed", "3", "--output", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert {r["name"] for r in data["properties"]} == {
        "frugal", "non-wasteful", "envy-free", "si", "lorenz", "structure", "substructure",
    }
    assert all(r["passed"] and r["witness"] is None for r in data["properties"])
    assert {r["name"]: r["seed"] for r in data["properties"]} == {
        "frugal": None, "non-wasteful": None, "envy-free": None, "si": None,
        "lorenz": 3, "structure": None, "substructure": 3,
    }
    assert data["skipped"] == []


def test_audit_unknown_property(misreport_path, capsys):
    code, out, err = run(capsys, ["audit", misreport_path, "--properties", "frugal,karma"])
    assert code == 2
    assert "unknown properties: karma" in err


def test_audit_flags_an_injected_bug(squeeze_path, capsys, monkeypatch):
    # Swap the solver for one that allocates nothing; the auditors must catch it.
    real = cli.lexicographic_allocation

    def broken(instance):
        _, profile = real(instance)
        return Allocation({}), profile

    monkeypatch.setattr(cli, "lexicographic_allocation", broken)
    code, out, err = run(
        capsys, ["audit", squeeze_path, "--properties", "nw,structure"]
    )
    assert code == 1
    assert "non-wasteful: FAIL" in out
    assert "structure: FAIL" in out


@pytest.mark.parametrize("output", ["table", "json"])
def test_audit_si_witness_is_the_first_worst_agent(tmp_path, capsys, monkeypatch, output):
    # c and a tie at ratio 0; c comes first in agent order, a in id order.
    agents = ("b", "c", "a")
    inst = Instance(
        agents, {x: 1 for x in agents}, ("x",), {"x": 3}, {(x, "x"): 3 for x in agents}
    )
    path = tmp_path / "three.json"
    save_instance(inst, str(path))
    real = cli.lexicographic_allocation

    def starve_c_and_a(instance):
        allocation, profile = real(instance)
        return Allocation({("b", "x"): allocation.amount_of("b", "x")}), profile

    monkeypatch.setattr(cli, "lexicographic_allocation", starve_c_and_a)
    code, out, err = run(
        capsys, ["audit", str(path), "--properties", "si", "--output", output]
    )
    assert code == 1 and err == ""
    witness = "[c] 0 vs 1/2 (utility below half the entitlement)"
    if output == "json":
        assert json.loads(out)["properties"][0]["witness"] == witness
    else:
        assert out == f"si: FAIL {witness}\n"


def test_audit_substructure_checks_the_audited_allocation(squeeze_path, capsys, monkeypatch):
    real = cli.lexicographic_allocation

    def broken(instance):
        _, profile = real(instance)
        return Allocation({}), profile

    monkeypatch.setattr(cli, "lexicographic_allocation", broken)
    code, out, err = run(
        capsys, ["audit", squeeze_path, "--properties", "nw,substructure"]
    )
    assert code == 1 and err == ""
    assert "non-wasteful: FAIL" in out
    assert "substructure: FAIL" in out


@pytest.mark.parametrize("properties", [",", ""])
def test_audit_rejects_empty_property_list(misreport_path, capsys, properties):
    code, out, err = run(capsys, ["audit", misreport_path, "--properties", properties])
    assert code == 2 and out == ""
    assert "properties must list at least one of" in err


def test_audit_runs_a_repeated_property_once(misreport_path, capsys):
    argv = ["audit", misreport_path, "--properties", "nw,frugal,nw, frugal"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, "non-wasteful: pass\nfrugal: pass\n", "")
    code, out, err = run(capsys, argv + ["--output", "json"])
    assert (code, err) == (0, "")
    names = [r["name"] for r in json.loads(out)["properties"]]
    assert names == ["non-wasteful", "frugal"]


def test_audit_non_frugal_output_fails_frugal_and_nw(squeeze_path, capsys, monkeypatch):
    over_demand(monkeypatch)
    code, out, err = run(capsys, ["audit", squeeze_path, "--properties", "frugal,nw"])
    assert code == 1 and err == ""
    assert "frugal: FAIL [a1, b2] 101 vs 1 (amount exceeds demand)" in out
    assert "non-wasteful: FAIL [a1, b2] 101 vs 1 (defined on frugal allocations only)" in out


def test_audit_json_seed_replays_a_lorenz_failure(squeeze_path, capsys, monkeypatch):
    real = cli.lexicographic_allocation

    def stingy(instance):
        _, profile = real(instance)
        return Allocation({}), profile

    monkeypatch.setattr(cli, "lexicographic_allocation", stingy)
    code, out, err = run(
        capsys,
        ["audit", squeeze_path, "--properties", "lorenz", "--samples", "20",
         "--seed", "4", "--output", "json"],
    )
    assert code == 1
    [report] = json.loads(out)["properties"]
    assert report["name"] == "lorenz" and not report["passed"]
    # The seed alone regenerates the rival allocation that beat the output.
    instance = si_bound_instance(2)
    rival = utility_vector(instance, random_frugal_allocation(instance, report["seed"]))
    sample, prefix = re.match(r"\[sample (\d+), prefix (\d+)\]", report["witness"]).groups()
    assert report["seed"] == 4 * 1_000_003 + int(sample)
    beaten = sum(rival.sorted_normalized[: int(prefix)], Rational(0))
    assert report["witness"].startswith(
        f"[sample {sample}, prefix {prefix}] 0 vs {format_rational(beaten)}"
    )


UNEQUAL = Instance(("x", "y"), {"x": 1, "y": 4}, ("b",), {"b": 1}, {("x", "b"): 1, ("y", "b"): 4})


@pytest.mark.parametrize(
    "instance, amounts, seed, witness, sample_seed",
    [
        # Equal endowments: prefix dominance, witnessed by the first lost prefix.
        (si_bound_instance(2), {("a1", "b2"): 1, ("a2", "b1"): 1}, 0,
         "[sample 3, prefix 2] 2 vs 77/32 (sampled allocation not dominated)", 3),
        # Unequal endowments: leximin order, witnessed by the first lost position.
        (UNEQUAL, {("x", "b"): Rational(1, 5), ("y", "b"): Rational(1, 2)}, 2,
         "[sample 6, position 2] 1/5 vs 1/4"
         " (sampled allocation beats the mechanism in leximin order)", 2 * 1_000_003 + 6),
    ],
    ids=["prefix", "leximin"],
)
def test_audit_lorenz_failure_witness(
    tmp_path, capsys, monkeypatch, instance, amounts, seed, witness, sample_seed
):
    path = str(tmp_path / "instance.json")
    save_instance(instance, path)
    real = cli.lexicographic_allocation

    def forced(inst):
        _, profile = real(inst)
        return Allocation(amounts), profile

    monkeypatch.setattr(cli, "lexicographic_allocation", forced)
    argv = ["audit", path, "--properties", "lorenz", "--samples", "50", "--seed", str(seed)]
    assert run(capsys, argv) == (1, f"lorenz: FAIL {witness}\n", "")
    code, out, err = run(capsys, argv + ["--output", "json"])
    assert code == 1 and err == ""
    [report] = json.loads(out)["properties"]
    assert (report["passed"], report["witness"], report["seed"]) == (False, witness, sample_seed)


def test_audit_internal_error_exit_code(squeeze_path, capsys, monkeypatch):
    def exploding(instance):
        raise InternalCheckError("flow value mismatch (injected)")

    monkeypatch.setattr(cli, "lexicographic_allocation", exploding)
    code, out, err = run(capsys, ["audit", squeeze_path])
    assert code == 3
    assert "internal check failed" in err


def test_audit_unexpected_exception_exit_code(squeeze_path, capsys, monkeypatch):
    def crashing(instance, allocation):
        raise RuntimeError("checker crashed (injected)")

    monkeypatch.setattr(cli, "is_frugal", crashing)
    code, out, err = run(capsys, ["audit", squeeze_path, "--properties", "frugal"])
    assert code == 3
    assert "internal error: RuntimeError: checker crashed (injected)" in err


@pytest.mark.parametrize("output", ["table", "json"])
def test_audit_rejects_negative_samples(misreport_path, capsys, output):
    code, out, err = run(
        capsys, ["audit", misreport_path, "--samples", "-5", "--output", output]
    )
    assert code == 2 and out == ""
    assert "samples must be nonnegative" in err


def test_audit_without_agents_skips_vacuous_checks(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"version": 1, "agents": [], "objects": [], "demands": []}\n')
    code, out, err = run(capsys, ["audit", str(path)])
    assert code == 0
    assert "lorenz: skipped (no agents)" in out
    assert "substructure: skipped (no agents)" in out
    assert "lorenz: pass" not in out and "substructure: pass" not in out

    code, out, err = run(capsys, ["audit", str(path), "--output", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["skipped"] == [
        {"name": "lorenz", "reason": "no agents"},
        {"name": "substructure", "reason": "no agents"},
    ]
    assert {r["name"] for r in data["properties"]} == {
        "frugal", "non-wasteful", "envy-free", "si", "structure",
    }


def test_audit_deterministic_given_seed(misreport_path, capsys):
    first = run(capsys, ["audit", misreport_path, "--samples", "10", "--seed", "5"])
    second = run(capsys, ["audit", misreport_path, "--samples", "10", "--seed", "5"])
    assert first == second


# -------------------------------------------------------------- manipulate


def test_manipulate_main_mechanism_holds(misreport_path, capsys):
    code, out, err = run(capsys, ["manipulate", misreport_path, "--grid", "1,2"])
    assert code == 0
    assert "no counterexample found (grid-bounded evidence, not proof)" in out


def test_manipulate_reference_rule_breaks(misreport_path, capsys):
    code, out, err = run(
        capsys, ["manipulate", misreport_path, "--grid", "1,2", "--mechanism", "mmf-si"]
    )
    assert code == 1
    assert "counterexample: coalition a1" in out
    assert "a1: utility 3 -> 4" in out
    assert "reported d(a1,b2) = 2 (true 1)" in out


def test_manipulate_json_counterexample(misreport_path, capsys):
    code, out, err = run(
        capsys,
        [
            "manipulate", misreport_path,
            "--grid", "1,2", "--mechanism", "mmf-si", "--output", "json",
        ],
    )
    assert code == 1
    data = json.loads(out)
    assert data["counterexample"]["winners"] == ["a1"]
    assert data["counterexample"]["losers"] == []
    assert data["counterexample"]["truthful_utilities"]["a1"] == "3"
    assert data["counterexample"]["misreport_utilities"]["a1"] == "4"
    assert data["skipped"] == 0
    assert data["note"] == "absence of a counterexample is grid-bounded evidence, not proof"


def test_manipulate_reference_rule_truthful_grid_infeasible(tmp_path, capsys):
    # Three agents share one object: each is entitled to 1/3, which the
    # quarter grid can only meet with 1/2 each.
    path = tmp_path / "crowded.json"
    save_instance(random_instance(18), str(path))
    code, out, err = run(capsys, ["manipulate", str(path), "--mechanism", "mmf-si"])
    assert code == 2 and out == ""
    assert "outside the mmf-si reference rule's domain" in err
    assert "at most 3 agents and 2 objects" in err


def test_manipulate_reference_rule_skips_infeasible_misreports(tmp_path, capsys):
    # Truthfully a3 demands nothing and a1, a2 take 1/2 each; a3 reporting
    # the full supply leaves three agents entitled to 1/3 of one unit.
    three = ("a1", "a2", "a3")
    inst = Instance(
        three, {a: 1 for a in three}, ("b",), {"b": 1}, {("a1", "b"): 1, ("a2", "b"): 1}
    )
    path = tmp_path / "two_of_three.json"
    save_instance(inst, str(path))
    code, out, err = run(capsys, ["manipulate", str(path), "--mechanism", "mmf-si"])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == (
        "mechanism mmf-si, coalitions of 1: 7 of 7 misreports tried,"
        " 1 outside the rule's domain skipped"
    )
    code, out, err = run(
        capsys, ["manipulate", str(path), "--mechanism", "mmf-si", "--output", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert (data["runs"], data["space"], data["skipped"]) == (7, 7, 1)


# sha256 of the exit code, stdout and stderr of every call below, recorded
# while the table and the JSON were still formatted separately.
MANIPULATE_DIGEST = "e21134047ece6a08a1d3ae45979b872f01c74df850c17c2c9f02a6e6a2eed2ad"


def manipulate_calls():
    """(instance, argv tail) pairs: the main mechanism on the named families
    and small random instances, with the default grid, an explicit one and
    coalitions of two, under budgets that truncate some searches; the
    reference rule on its lemma 6 counterexample, small instances inside its
    domain (skips and truncation included) and two outside it."""
    lmmf_instances = (
        [si_misreport_instance()]
        + [si_bound_instance(n) for n in (2, 3, 4)]
        + [burst_demand_instance(n) for n in (2, 3, 4)]
        + [random_instance(s) for s in range(8)]
    )
    lmmf_options = (
        ["--budget", "400"], ["--grid", "1,2"], ["--coalition", "2", "--budget", "25"]
    )
    mmf_si_instances = (
        [si_bound_instance(2), burst_demand_instance(2)]
        + [random_instance(s, 2, 2, 0.9) for s in (0, 2, 4, 6)]
        + [random_instance(s, 3, 1, 0.9) for s in (2, 3)]
        + [random_instance(18), si_bound_instance(4)]
    )
    calls = [(inst, options) for inst in lmmf_instances for options in lmmf_options]
    calls.append((si_misreport_instance(), ["--mechanism", "mmf-si", "--grid", "1,2"]))
    calls += [(inst, ["--mechanism", "mmf-si", "--budget", "8"]) for inst in mmf_si_instances]
    return calls


def test_manipulate_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "instance.json"
    outcomes = set()
    for inst, options in manipulate_calls():
        save_instance(inst, str(path))
        for output in ("table", "json"):
            argv = ["manipulate", str(path), *options, "--output", output]
            code, out, err = run(capsys, argv)
            outcomes.add(code)
            digest.update(f"{code}\n{out}\n{err}\n".encode("utf-8"))
    assert outcomes == {0, 1, 2}
    assert digest.hexdigest() == MANIPULATE_DIGEST


def split_flows(instance):
    """The number of split flows ``breakpoints`` takes on the instance."""
    flows = []
    real = leximin.max_flow
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(leximin, "max_flow", lambda network: flows.append(1) or real(network))
        leximin.breakpoints(instance)
    return len(flows)


def test_manipulate_truthful_value_error_is_an_internal_error(squeeze_path, capsys, monkeypatch):
    # The truthful run's split tree fails at its last flow: the instance is
    # validated before that run, so that is a solver bug.
    truthful = split_flows(si_bound_instance(2))
    flows = []
    real = leximin.max_flow

    def fails_at_the_truthful_split_tree(network):
        flows.append(1)
        if len(flows) == truthful:
            raise ValueError("flow on a broken network (injected)")
        return real(network)

    monkeypatch.setattr(leximin, "max_flow", fails_at_the_truthful_split_tree)
    code, out, err = run(capsys, ["manipulate", squeeze_path])
    assert code == 3 and out == ""
    assert "internal check failed" in err and "flow on a broken network (injected)" in err
    assert len(flows) == truthful


def test_manipulate_misreport_value_error_is_an_internal_error(squeeze_path, capsys, monkeypatch):
    # The truthful run's flows succeed and the first misreport run's fails:
    # a reported instance is valid by construction, so that is a solver bug.
    truthful = split_flows(si_bound_instance(2))
    flows = []
    real = leximin.max_flow

    def fails_after_the_truthful_run(network):
        flows.append(1)
        if len(flows) > truthful:
            raise ValueError("flow on a broken network (injected)")
        return real(network)

    monkeypatch.setattr(leximin, "max_flow", fails_after_the_truthful_run)
    code, out, err = run(capsys, ["manipulate", squeeze_path])
    assert code == 3 and out == ""
    assert "internal check failed" in err and "flow on a broken network (injected)" in err
    assert len(flows) == truthful + 1


def test_manipulate_reported_structure_violation_is_an_internal_error(
    squeeze_path, capsys, monkeypatch
):
    # Lowering every truthful utility by 1/1000 makes the search report a
    # run; a final flow that drops one of its entries breaks that run's
    # structure, which the reported run must check.
    lower_search_baseline(monkeypatch)
    real_final = leximin._final_flow

    def dropped(*args):
        flows = real_final(*args)
        flows.pop(min(flows))
        return flows

    monkeypatch.setattr(leximin, "_final_flow", dropped)
    code, out, err = run(capsys, ["manipulate", squeeze_path])
    assert code == 3 and out == ""
    assert "internal check failed: misreport run violated its own structure" in err


def test_manipulate_has_no_seed(misreport_path, capsys):
    code, out, err = run(capsys, ["manipulate", misreport_path, "--grid", "1,2", "--output", "json"])
    assert code == 0
    assert "seed" not in json.loads(out)
    with pytest.raises(SystemExit) as exc:
        cli.main(["manipulate", misreport_path, "--seed", "1"])
    assert exc.value.code == 2


def test_manipulate_argument_errors(misreport_path, capsys):
    code, _, err = run(capsys, ["manipulate", misreport_path, "--budget", "0"])
    assert code == 2 and "budget" in err
    code, _, err = run(capsys, ["manipulate", misreport_path, "--coalition", "7"])
    assert code == 2 and "coalition size" in err
    code, _, err = run(capsys, ["manipulate", misreport_path, "--grid", " , "])
    assert code == 2 and "grid" in err
    code, _, err = run(capsys, ["manipulate", misreport_path, "--grid", "1/0"])
    assert code == 2 and "zero denominator" in err


def test_manipulate_rejects_an_instance_without_agents(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"version": 1, "agents": [], "objects": [], "demands": []}\n')
    code, out, err = run(capsys, ["manipulate", str(path)])
    assert code == 2 and out == ""
    assert "the instance has no agents" in err
    assert "coalition size" not in err


# ---------------------------------------------------------------- generate


def test_generate_named_family(capsys):
    code, out, err = run(capsys, ["generate", "lemma5", "--n", "2"])
    assert code == 0
    assert parse_instance(out) == si_bound_instance(2)


def test_generate_named_family_needs_n(capsys):
    code, _, err = run(capsys, ["generate", "lemma5"])
    assert code == 2
    assert "--n" in err


def test_generate_random_is_deterministic(capsys):
    first = run(capsys, ["generate", "random", "--seed", "7"])
    second = run(capsys, ["generate", "random", "--seed", "7"])
    assert first == second
    assert first[1] == serialize_instance(random_instance(7))


def test_generate_to_file(tmp_path, capsys):
    out_path = tmp_path / "generated.json"
    code, out, err = run(capsys, ["generate", "lemma6", "--out", str(out_path)])
    assert code == 0 and out == ""
    assert parse_instance(out_path.read_text()) == si_misreport_instance()


def test_generate_seed_defaults_to_zero(capsys):
    code, out, err = run(capsys, ["generate", "random"])
    assert code == 0
    assert out == serialize_instance(random_instance(0))


def test_generate_random_with_sizes(capsys):
    code, out, err = run(
        capsys,
        ["generate", "random", "--seed", "1", "--agents", "3", "--objects", "2",
         "--density", "1.0"],
    )
    assert code == 0
    inst = parse_instance(out)
    assert len(inst.agents) == 3 and len(inst.objects) == 2
    assert len(inst.demand) <= 6


def test_generate_rejects_bad_density(capsys):
    code, _, err = run(capsys, ["generate", "random", "--density", "1.5"])
    assert code == 2
    assert "density" in err
