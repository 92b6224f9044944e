"""Instance file parsing and serialization: exactness and error paths."""

import json

import pytest

from leximinflow.core import Instance
from leximinflow.fileio import (
    FORMAT_VERSION,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from leximinflow.generators import (
    burst_demand_instance,
    si_bound_instance,
    si_misreport_instance,
)
from leximinflow.rational import ParseError, format_rational


def _document(**overrides):
    doc = {
        "version": FORMAT_VERSION,
        "agents": [{"id": "a1", "endowment": "1"}, {"id": "a2", "endowment": "2/3"}],
        "objects": [{"id": "b1", "supply": "3"}],
        "demands": [
            {"agent": "a1", "object": "b1", "demand": "1/2"},
            {"agent": "a2", "object": "b1", "demand": "4"},
        ],
    }
    doc.update(overrides)
    return doc


def test_round_trip_named_families():
    for inst in (si_bound_instance(5), si_misreport_instance(), burst_demand_instance(3)):
        again = parse_instance(serialize_instance(inst))
        assert again == inst


def test_round_trip_random_corpus(corpus):
    for inst in corpus[:60]:
        assert parse_instance(serialize_instance(inst)) == inst


def test_parse_reads_integers_and_fraction_strings():
    doc = _document()
    doc["agents"][0]["endowment"] = 1  # bare JSON integer is accepted
    inst = parse_instance(json.dumps(doc))
    assert inst.endowment["a1"] == 1
    assert inst.demand[("a1", "b1")] == parse_instance(json.dumps(_document())).demand[("a1", "b1")]


def test_serialized_numbers_are_strings_in_lowest_terms():
    inst = Instance(("a",), {"a": "2/4"}, ("b",), {"b": "6/3"}, {("a", "b"): "10/4"})
    doc = json.loads(serialize_instance(inst))
    assert doc["agents"][0]["endowment"] == "1/2"
    assert doc["objects"][0]["supply"] == "2"
    assert doc["demands"][0]["demand"] == "5/2"


def test_serialize_lists_demands_in_instance_order():
    # The demand dict is filled in reverse; the file follows the instance's
    # agent order, then its object order.
    agents, objects = ("z", "a", "m"), ("y", "b")
    demand = {}
    for a in reversed(agents):
        for b in reversed(objects):
            demand[(a, b)] = 1
    inst = Instance(agents, dict.fromkeys(agents, 1), objects, dict.fromkeys(objects, 1), demand)
    doc = json.loads(serialize_instance(inst))
    assert [(d["agent"], d["object"]) for d in doc["demands"]] == [
        ("z", "y"), ("z", "b"), ("a", "y"), ("a", "b"), ("m", "y"), ("m", "b"),
    ]


def test_serialize_ends_with_newline():
    assert serialize_instance(si_misreport_instance()).endswith("}\n")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "top level must be an object"),
        ("3", "top level must be an object"),
    ],
)
def test_parse_rejects_malformed_documents(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_instance(text)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("version"), r"document: missing field 'version'"),
        (lambda d: d.update(version=2), r"version: unsupported format version 2"),
        (lambda d: d.update(version=True), r"version: unsupported format version True"),
        (lambda d: d.update(version=1.0), r"version: unsupported format version 1\.0"),
        (lambda d: d.pop("agents"), r"document: missing field 'agents'"),
        (lambda d: d.update(demands={}), r"demands: expected a list"),
        (lambda d: d["agents"][0].pop("id"), r"agents\[0\]: missing field 'id'"),
        (lambda d: d["agents"][0].update(id=7), r"agents\[0\]\.id: expected a string"),
        (
            lambda d: d["agents"][0].update(endowment="1/0"),
            r"agents\[0\]\.endowment: .*zero denominator",
        ),
        (
            lambda d: d["agents"][1].update(endowment=1.5),
            r"agents\[1\]\.endowment: expected an integer",
        ),
        (
            lambda d: d["objects"][0].update(supply=True),
            r"objects\[0\]\.supply: expected an integer",
        ),
        (
            lambda d: d["demands"][0].update(agent="ghost"),
            r"demands\[0\]\.agent: unknown agent id 'ghost'",
        ),
        (
            lambda d: d["demands"][1].update(object="ghost"),
            r"demands\[1\]\.object: unknown object id 'ghost'",
        ),
        (
            lambda d: d["demands"][1].update(agent="a1"),
            r"demands\[1\]: duplicate demand entry",
        ),
        (
            lambda d: d["demands"][0].update(demand="0.5"),
            r"demands\[0\]\.demand: ",
        ),
    ],
)
def test_parse_errors_name_the_field(mutate, fragment):
    doc = _document()
    mutate(doc)
    with pytest.raises(ParseError, match=fragment):
        parse_instance(json.dumps(doc))


def test_load_and_save(tmp_path):
    inst = si_bound_instance(3)
    path = tmp_path / "instance.json"
    save_instance(inst, str(path))
    assert load_instance(str(path)) == inst
    # byte-identical on a second serialization
    assert path.read_text() == serialize_instance(inst)


def test_load_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_instance(str(tmp_path / "absent.json"))


def test_parse_result_is_validated_lazily():
    # the parser checks ids and numbers, not solvability; zero supply is fine
    doc = _document(objects=[{"id": "b1", "supply": "0"}])
    inst = parse_instance(json.dumps(doc))
    assert inst.supply["b1"] == 0
