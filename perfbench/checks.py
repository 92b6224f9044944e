"""Output checks, run after the timed region on every captured operation.

``allocate`` is checked against the breakpoints, tiers and per-agent
utilities recorded in ``expected.json``, every reported property flag must be
true, and instances with at most 12 agents are also checked against the
subset-enumeration oracle.  ``audit`` must pass every property and skip
exactly the recorded checks.  ``manipulate`` must find no counterexample and
report the recorded ``runs`` and ``space``.

Each check returns None when the output is right, else a message.
"""

from __future__ import annotations

import json

ORACLE_MAX_AGENTS = 12


def allocate_view(data: dict) -> dict:
    """The part of ``allocate --output json`` that does not depend on the
    order agents and objects are listed in."""
    return {
        "breakpoints": data["breakpoints"],
        "tiers": [
            {"rate": t["rate"], "agents": sorted(t["agents"]), "objects": sorted(t["objects"])}
            for t in data["tiers"]
        ],
        "utilities": {row["id"]: row["utility"] for row in data["agents"]},
    }


def oracle_view(instance) -> dict:
    """Breakpoints and utilities by subset enumeration."""
    from leximinflow.oracle import oracle_breakpoints
    from leximinflow.rational import format_rational

    profile = oracle_breakpoints(instance)
    return {
        "breakpoints": [format_rational(r) for r in profile.lambdas],
        "utilities": {
            a: format_rational(instance.endowment[a] * profile.per_agent[a])
            for a in instance.agents
        },
    }


def check_allocate(code, stdout: str, expected: dict, oracle: dict | None):
    if code != 0:
        return f"exit code {code}"
    data = json.loads(stdout)
    failed = sorted(name for name, ok in data["properties"].items() if not ok)
    if failed:
        return f"properties failed: {failed}"
    view = allocate_view(data)
    for field in ("breakpoints", "tiers", "utilities"):
        if view[field] != expected[field]:
            return f"{field} differ from expected.json"
    if oracle is not None:
        for field in ("breakpoints", "utilities"):
            if view[field] != oracle[field]:
                return f"{field} differ from the oracle"
    return None


def check_audit(code, stdout: str, expected: dict):
    if code != 0:
        return f"exit code {code}"
    data = json.loads(stdout)
    failed = [p["name"] for p in data["properties"] if not p["passed"]]
    if failed:
        return f"properties failed: {failed}"
    if data["skipped"] != expected["audit_skipped"]:
        return f"skipped {data['skipped']}, expected {expected['audit_skipped']}"
    return None


def check_manipulate(code, stdout: str, expected: dict):
    if code != 0:
        return f"exit code {code}"
    data = json.loads(stdout)
    if data["counterexample"] is not None:
        return "counterexample reported"
    got = {"runs": data["runs"], "space": data["space"]}
    if got != expected:
        return f"runs/space {got}, expected {expected}"
    return None
