"""Both rational backends give byte-identical output.

``Rational`` is ``gmpy2.mpq`` when gmpy2 imports and ``fractions.Fraction``
otherwise.  With gmpy2 present, ``allocate --output json``, ``manipulate
--output json`` and ``audit --output json`` run once on each backend, the
second time with gmpy2 blocked, and both runs must print the same bytes and
exit codes.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import staircase
from leximinflow import cli
from leximinflow.fileio import save_instance
from leximinflow.generators import si_misreport_instance

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("gmpy2") is None,
    reason="gmpy2 not installed: only the Fraction backend runs here",
)

SRC = str(Path(cli.__file__).resolve().parents[1])

# argv: "mpq" or "fraction", then one JSON list of CLI argument lists.
# Prints the backend and each command's exit code and stdout.
RUN_EACH = """
import contextlib, io, json, sys
if sys.argv[1] == "fraction":
    sys.modules["gmpy2"] = None
from leximinflow import cli
from leximinflow.rational import Rational
outputs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps([f"{Rational.__module__}.{Rational.__name__}", outputs]))
"""


def run_each(backend: str, commands: list[list[str]]):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", RUN_EACH, backend, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=600, check=True,
    )
    return json.loads(done.stdout)


def assert_identical(commands):
    mpq_backend, mpq_outputs = run_each("mpq", commands)
    fraction_backend, fraction_outputs = run_each("fraction", commands)
    assert (mpq_backend, fraction_backend) == ("gmpy2.mpq", "fractions.Fraction")
    assert fraction_outputs == mpq_outputs


def saved(instances, tmp_path) -> list[str]:
    paths = []
    for i, inst in enumerate(instances):
        path = tmp_path / f"{i}.json"
        save_instance(inst, str(path))
        paths.append(str(path))
    return paths


def test_allocate_json_identical_under_both_backends(corpus, tmp_path):
    paths = saved(corpus[:40] + [staircase(n) for n in range(2, 25)], tmp_path)
    assert_identical([["allocate", path, "--output", "json"] for path in paths])


def test_manipulate_json_identical_under_both_backends(corpus, tmp_path):
    # The main mechanism on the default grid and on a grid whose multipliers
    # have a denominator, at coalition sizes 1 and 2; the reference rule on
    # the instance it is manipulable on.
    paths = saved(corpus[:20] + [staircase(4), si_misreport_instance()], tmp_path)
    commands = []
    for path in paths[:-1]:
        for grid in ([], ["--grid", "1/3,3"]):
            for size in ("1", "2"):
                commands.append(
                    ["manipulate", path, "--output", "json", "--coalition", size,
                     "--budget", "30", *grid]
                )
    commands.append(
        ["manipulate", paths[-1], "--output", "json", "--mechanism", "mmf-si", "--grid", "1,2"]
    )
    assert_identical(commands)


def test_audit_json_identical_under_both_backends(tmp_path):
    # The default properties include substructure, so the subset-enumeration
    # oracle scales mpq inputs to ints on one run and Fractions on the other.
    paths = saved([staircase(4), si_misreport_instance()], tmp_path)
    assert_identical([["audit", path, "--output", "json", "--samples", "5"] for path in paths])
