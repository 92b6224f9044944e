"""Command-line surface: allocate, audit, manipulate, generate.

Exit codes are a stable contract for CI use: 0 success / all checks pass,
1 property failure or manipulation counterexample found, 2 input error
(unreadable file, parse or validation failure, bad arguments), 3 internal
failure: a failed solver self-check or any unexpected exception (always a
bug, never a valid outcome).

All numbers are printed as exact fractions; ``--output json`` emits the same
data machine-readably.  ``audit`` checks the allocation the mechanism
returns, substructure included; the ``--seed`` of ``audit`` and ``generate``
defaults to 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import fileio
from .core import (
    Allocation,
    Instance,
    InternalCheckError,
    InvalidInstanceError,
    utility_vector,
    validate_instance,
)
from .generators import (
    burst_demand_instance,
    random_instance,
    si_bound_instance,
    si_misreport_instance,
)
from .harness import check_substructure, search_manipulation
from .leximin import BreakpointProfile, lexicographic_allocation, structure_check
from .oracle import random_frugal_allocation
from .properties import (
    envy_report,
    is_frugal,
    is_nw,
    leximin_cmp,
    lorenz_dominates,
    si_ratio,
)
from .rational import ParseError, Rational, ZERO, format_rational, parse_rational
from .reporting import PropertyReport, failing, passing

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

AUDIT_PROPERTIES = ("frugal", "nw", "ef", "si", "lorenz", "structure", "substructure")
HALF = Rational(1, 2)


def allocation_dict(instance: Instance, allocation: Allocation, profile: BreakpointProfile) -> dict:
    """One mechanism run as JSON-ready data, with the three printed checks."""
    entitlements = si_ratio(instance, allocation)
    properties = (
        is_frugal(instance, allocation),
        is_nw(instance, allocation),
        envy_report(instance, allocation),
    )
    agents = [
        {
            "id": a,
            "endowment": format_rational(instance.endowment[a]),
            "rate": format_rational(profile.per_agent[a]),
            "tier": profile.tier_of(a) + 1,
            "utility": format_rational(u),
            "normalized": format_rational(norm),
        }
        for a, u, norm in utility_vector(instance, allocation).entries
    ]
    return {
        "agents": agents,
        "allocation": [
            {"agent": a, "object": b, "amount": format_rational(v)}
            for (a, b), v in sorted(allocation.amount.items())
        ],
        "breakpoints": [format_rational(l) for l in profile.lambdas],
        "tiers": [
            {
                "rate": format_rational(profile.lambdas[i]),
                "agents": sorted(profile.new_agents(i)),
                "objects": sorted(profile.new_objects(i)),
            }
            for i in range(profile.k)
        ],
        "entitlements": {
            "ratio": None if entitlements.ratio is None else format_rational(entitlements.ratio),
            "table": [
                {"agent": a, "utility": format_rational(u), "entitlement": format_rational(si)}
                for a, u, si in entitlements.table
            ],
        },
        "properties": {r.name: r.passed for r in properties},
    }


def allocation_table(data: dict) -> str:
    """The table form of ``allocation_dict``'s data."""
    lines = ["agent  endowment  rate  tier  utility  normalized"]
    for row in data["agents"]:
        lines.append(
            f"{row['id']:<6} {row['endowment']:>9}  {row['rate']:>4}"
            f"  {row['tier']:>4}  {row['utility']:>7}  {row['normalized']:>10}"
        )
    lines.append("")
    lines.append("allocation (agent, object, amount):")
    if not data["allocation"]:
        lines.append("  (empty)")
    for row in data["allocation"]:
        lines.append(f"  {row['agent']:<6} {row['object']:<6} {row['amount']}")
    lines.append("")
    lines.append("breakpoints: " + (", ".join(data["breakpoints"]) or "(none)"))
    for i, tier in enumerate(data["tiers"], start=1):
        objs = ", ".join(tier["objects"]) or "-"
        lines.append(
            f"  tier {i}: rate {tier['rate']}, agents {', '.join(tier['agents'])},"
            f" exhausted objects {objs}"
        )
    ratio = data["entitlements"]["ratio"]
    lines.append("")
    lines.append(f"entitlement ratio: {ratio if ratio is not None else 'unconstrained'}")
    props = ", ".join(
        f"{name}={'pass' if ok else 'FAIL'}" for name, ok in data["properties"].items()
    )
    lines.append(f"properties: {props}")
    return "\n".join(lines) + "\n"


def _load(path: str) -> Instance:
    instance = fileio.load_instance(path)
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(f"{path}: " + "; ".join(violations))
    return instance


def cmd_allocate(args) -> int:
    instance = _load(args.path)
    allocation, profile = lexicographic_allocation(instance)
    data = allocation_dict(instance, allocation, profile)
    if args.output == "json":
        print(json.dumps(data, indent=2))
    else:
        print(allocation_table(data), end="")
    return EXIT_OK if all(data["properties"].values()) else EXIT_FAIL


def _audit_si(instance: Instance, allocation: Allocation) -> PropertyReport:
    report = si_ratio(instance, allocation)
    if report.ratio is None:
        return passing("si", detail="no agent has positive entitlement")
    if report.ratio >= HALF:
        return passing("si", detail=f"ratio {format_rational(report.ratio)}")
    for a, u, entitlement in report.table:
        if entitlement > 0 and u / entitlement == report.ratio:
            return failing(
                "si", (a,), u, HALF * entitlement,
                note="utility below half the entitlement",
            )
    raise InternalCheckError("entitlement ratio without a witnessing agent")


def _audit_lorenz(instance: Instance, allocation: Allocation, samples: int, seed: int) -> PropertyReport:
    # Prefix-sum dominance between sorted normalized vectors is only a sound
    # requirement when all agents share one endowment; with unequal endowments
    # a leximin-optimal vector can still lose some prefix to an allocation that
    # starves a small-endowment agent.  So the audit requires full dominance on
    # equal endowments and the leximin comparison otherwise.
    equal = len(set(instance.endowment.values())) <= 1
    reference = utility_vector(instance, allocation)
    for k in range(samples):
        sample_seed = seed * 1_000_003 + k
        other = utility_vector(
            instance, random_frugal_allocation(instance, sample_seed)
        )
        # Dominance implies leximin order (the first differing position of a
        # dominating vector is the larger one), so each sample needs one check.
        if equal and not lorenz_dominates(reference, other):
            mine = theirs = ZERO
            for prefix, (x, y) in enumerate(
                zip(reference.sorted_normalized, other.sorted_normalized), start=1
            ):
                mine += x
                theirs += y
                if mine < theirs:
                    break
            return failing(
                "lorenz", (f"sample {k}", f"prefix {prefix}"), mine, theirs,
                note="sampled allocation not dominated",
                seed=sample_seed,
            )
        if not equal and leximin_cmp(reference, other) < 0:
            pos = next(
                i
                for i in range(len(reference))
                if reference.sorted_normalized[i] != other.sorted_normalized[i]
            )
            return failing(
                "lorenz", (f"sample {k}", f"position {pos + 1}"),
                reference.sorted_normalized[pos],
                other.sorted_normalized[pos],
                note="sampled allocation beats the mechanism in leximin order",
                seed=sample_seed,
            )
    scope = "prefix dominance" if equal else "leximin order (unequal endowments)"
    return passing("lorenz", detail=f"{samples} samples, {scope}", seed=seed)


def cmd_audit(args) -> int:
    instance = _load(args.path)
    # A repeated name runs once, in first-seen order.
    selected = AUDIT_PROPERTIES if args.properties is None else tuple(
        dict.fromkeys(p.strip() for p in args.properties.split(",") if p.strip())
    )
    if not selected:
        raise ParseError(
            f"properties must list at least one of: {', '.join(AUDIT_PROPERTIES)}"
        )
    unknown = set(selected) - set(AUDIT_PROPERTIES)
    if unknown:
        raise ParseError(
            f"unknown properties: {', '.join(sorted(unknown))}"
            f" (choose from {', '.join(AUDIT_PROPERTIES)})"
        )
    if args.samples < 0:
        raise ParseError("samples must be nonnegative")
    allocation, profile = lexicographic_allocation(instance)
    reports: list[PropertyReport] = []
    skipped: list[tuple[str, str]] = []
    for prop in selected:
        if prop == "frugal":
            reports.append(is_frugal(instance, allocation))
        elif prop == "nw":
            reports.append(is_nw(instance, allocation))
        elif prop == "ef":
            reports.append(envy_report(instance, allocation))
        elif prop == "si":
            reports.append(_audit_si(instance, allocation))
        elif prop == "lorenz":
            if args.samples == 0:
                skipped.append(("lorenz", "0 samples requested"))
            elif not instance.agents:
                skipped.append(("lorenz", "no agents"))
            else:
                reports.append(_audit_lorenz(instance, allocation, args.samples, args.seed))
        elif prop == "structure":
            reports.append(structure_check(instance, allocation, profile))
        elif prop == "substructure":
            if not instance.agents:
                skipped.append(("substructure", "no agents"))
            elif len(instance.agents) > 12:
                skipped.append(("substructure", "needs <= 12 agents for the oracle"))
            else:
                reports.append(check_substructure(instance, allocation, trials=5, seed=args.seed))
    all_passed = all(r.passed for r in reports)
    if args.output == "json":
        print(
            json.dumps(
                {
                    "properties": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            "witness": None if r.witness is None else str(r.witness),
                            "detail": r.detail,
                            "seed": r.seed,
                        }
                        for r in reports
                    ],
                    "skipped": [{"name": name, "reason": why} for name, why in skipped],
                },
                indent=2,
            )
        )
    else:
        for r in reports:
            print(str(r))
        for name, why in skipped:
            print(f"{name}: skipped ({why})")
    return EXIT_OK if all_passed else EXIT_FAIL


def cmd_manipulate(args) -> int:
    instance = _load(args.path)
    if args.budget < 1:
        raise ParseError("budget must be at least 1 mechanism run")
    grid = None
    if args.grid is not None:
        parts = [p.strip() for p in args.grid.split(",") if p.strip()]
        if not parts:
            raise ParseError("grid must list at least one multiplier")
        grid = tuple(parse_rational(p) for p in parts)
    result = search_manipulation(
        instance,
        coalition_size=args.coalition,
        demand_grid=grid,
        budget=args.budget,
        mechanism=args.mechanism,
    )
    found = result.counterexample is not None
    if args.output == "json":
        payload = {
            "mechanism": args.mechanism,
            "coalition_size": args.coalition,
            "runs": result.runs,
            "space": result.space,
            "truncated": result.truncated,
            "skipped": result.skipped,
            "counterexample": None,
            "note": "absence of a counterexample is grid-bounded evidence, not proof",
        }
        if found:
            ce = result.counterexample
            payload["counterexample"] = {
                "coalition": list(ce.coalition),
                "winners": list(ce.winners),
                "losers": list(ce.losers),
                "reported": [
                    {"agent": a, "object": b, "demand": format_rational(v)}
                    for (a, b), v in sorted(ce.reported_demands.items())
                ],
                "true": [
                    {"agent": a, "object": b, "demand": format_rational(v)}
                    for (a, b), v in sorted(ce.true_demands.items())
                ],
                "truthful_utilities": {
                    a: format_rational(u) for a, u in sorted(ce.truthful_utilities.items())
                },
                "misreport_utilities": {
                    a: format_rational(u) for a, u in sorted(ce.misreport_utilities.items())
                },
            }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"mechanism {args.mechanism}, coalitions of {args.coalition}:"
            f" {result.runs} of {result.space} misreports tried"
            + (" (budget exhausted)" if result.truncated else "")
            + (
                f", {result.skipped} outside the rule's domain skipped"
                if result.skipped
                else ""
            )
        )
        if found:
            ce = result.counterexample
            print(f"counterexample: coalition {', '.join(ce.coalition)}")
            for a in ce.coalition:
                print(
                    f"  {a}: utility {format_rational(ce.truthful_utilities[a])}"
                    f" -> {format_rational(ce.misreport_utilities[a])}"
                )
            for (a, b), v in sorted(ce.reported_demands.items()):
                true = ce.true_demands[(a, b)]
                if v != true:
                    print(
                        f"  reported d({a},{b}) = {format_rational(v)}"
                        f" (true {format_rational(true)})"
                    )
        else:
            print("no counterexample found (grid-bounded evidence, not proof)")
    return EXIT_FAIL if found else EXIT_OK


def cmd_generate(args) -> int:
    if args.family == "lemma5":
        if args.n is None:
            raise ParseError("this family needs --n (number of agents, >= 2)")
        instance = si_bound_instance(args.n)
    elif args.family == "lemma6":
        instance = si_misreport_instance()
    elif args.family == "intro":
        if args.n is None:
            raise ParseError("this family needs --n (number of agents, >= 2)")
        instance = burst_demand_instance(args.n)
    else:
        instance = random_instance(
            seed=args.seed,
            num_agents=args.agents,
            num_objects=args.objects,
            density=args.density,
        )
    text = fileio.serialize_instance(instance)
    if args.out is None:
        print(text, end="")
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leximinflow",
        description=(
            "Exact leximin-fair allocation of divisible objects under demand caps. "
            "Computes the unique fair utility profile via parametric max flow and "
            "audits it: demand caps respected, nothing wasted, envy-free, at least "
            "half of each agent's proportional entitlement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="run the mechanism on an instance file")
    p.add_argument("path", help="instance file (JSON, exact fractions)")
    p.add_argument("--output", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("audit", help="check fairness properties of the mechanism's output")
    p.add_argument("path")
    p.add_argument(
        "--properties",
        default=None,
        help=f"comma-separated subset of: {', '.join(AUDIT_PROPERTIES)} (default all)",
    )
    p.add_argument("--samples", type=int, default=1000,
                   help="random allocations to dominate in the lorenz check (0 skips)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("manipulate", help="search for profitable coalition misreports")
    p.add_argument("path")
    p.add_argument("--coalition", type=int, default=1, help="coalition size (default 1)")
    p.add_argument(
        "--grid",
        default=None,
        help='comma-separated demand multipliers, e.g. "0,1/2,1,2"; the default '
        "grid also probes withholding (0) and reporting the full supply",
    )
    p.add_argument("--budget", type=int, default=100_000,
                   help="maximum mechanism runs (default 100000)")
    p.add_argument("--mechanism", choices=("lmmf", "mmf-si"), default="lmmf",
                   help="lmmf: the main mechanism; mmf-si: the manipulable "
                   "maximin-with-full-entitlements reference rule")
    p.add_argument("--output", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_manipulate)

    p = sub.add_parser("generate", help="write a named or random instance file")
    p.add_argument("family", choices=("lemma5", "lemma6", "intro", "random"))
    p.add_argument("--n", type=int, default=None, help="size parameter for lemma5/intro")
    p.add_argument("--agents", type=int, default=None, help="agent count (random family)")
    p.add_argument("--objects", type=int, default=None, help="object count (random family)")
    p.add_argument("--density", type=float, default=None,
                   help="probability of a nonzero demand entry (random family)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ParseError and InvalidInstanceError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
