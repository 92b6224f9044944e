"""Instance file format: JSON with every number as an exact fraction string.

Numbers are serialized as decimal integers or ``"p/q"`` strings, never floats,
so parse(serialize(x)) reproduces the instance bit-exactly.  Parse errors name
the offending field by path (e.g. ``demands[2].demand``); demand entries that
reference undeclared ids are parse errors, not validation warnings.
"""

from __future__ import annotations

import json

from .core import Instance
from .rational import ParseError, Rational, format_rational, parse_rational

FORMAT_VERSION = 1


def _parse_number(value, where: str) -> Rational:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(f"{where}: expected an integer or \"p/q\" string, got {value!r}")
    try:
        return parse_rational(str(value))
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise ParseError(f"{where}: missing field {key!r}")
    return mapping[key]


def _require_str(mapping, key: str, where: str) -> str:
    value = _require(mapping, key, where)
    if not isinstance(value, str):
        raise ParseError(f"{where}.{key}: expected a string, got {value!r}")
    return value


def parse_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    version = _require(doc, "version", "document")
    # true and 1.0 equal 1 in Python, yet neither is a format version.
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"version: unsupported format version {version!r}")
    for key in ("agents", "objects", "demands"):
        if not isinstance(_require(doc, key, "document"), list):
            raise ParseError(f"{key}: expected a list")
    agents = []
    endowment = {}
    for i, entry in enumerate(doc["agents"]):
        where = f"agents[{i}]"
        agent = _require_str(entry, "id", where)
        agents.append(agent)
        endowment[agent] = _parse_number(_require(entry, "endowment", where), f"{where}.endowment")
    objects = []
    supply = {}
    for i, entry in enumerate(doc["objects"]):
        where = f"objects[{i}]"
        obj = _require_str(entry, "id", where)
        objects.append(obj)
        supply[obj] = _parse_number(_require(entry, "supply", where), f"{where}.supply")
    demand = {}
    agent_set = set(agents)
    object_set = set(objects)
    for i, entry in enumerate(doc["demands"]):
        where = f"demands[{i}]"
        a = _require_str(entry, "agent", where)
        b = _require_str(entry, "object", where)
        if a not in agent_set:
            raise ParseError(f"{where}.agent: unknown agent id {a!r}")
        if b not in object_set:
            raise ParseError(f"{where}.object: unknown object id {b!r}")
        value = _parse_number(_require(entry, "demand", where), f"{where}.demand")
        if (a, b) in demand:
            raise ParseError(f"{where}: duplicate demand entry for ({a!r}, {b!r})")
        demand[(a, b)] = value
    return Instance(
        agents=tuple(agents),
        endowment=endowment,
        objects=tuple(objects),
        supply=supply,
        demand=demand,
    )


def serialize_instance(instance: Instance) -> str:
    """The instance as versioned JSON.  Demand entries are listed by instance
    agent order, then instance object order; an entry naming an undeclared id
    is left out, as the parser would reject it."""
    agent_rank = {a: r for r, a in enumerate(instance.agents)}
    object_rank = {b: r for r, b in enumerate(instance.objects)}
    entries = sorted(
        (agent_rank[a], object_rank[b], a, b, d)
        for (a, b), d in instance.demand.items()
        if a in agent_rank and b in object_rank
    )
    doc = {
        "version": FORMAT_VERSION,
        "agents": [
            {"id": a, "endowment": format_rational(instance.endowment[a])}
            for a in instance.agents
        ],
        "objects": [
            {"id": b, "supply": format_rational(instance.supply[b])}
            for b in instance.objects
        ],
        "demands": [
            {"agent": a, "object": b, "demand": format_rational(d)}
            for _, _, a, b, d in entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    return parse_instance(text)


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_instance(instance))
