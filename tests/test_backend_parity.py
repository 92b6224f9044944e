"""Both rational backends give byte-identical output.

``Rational`` is ``gmpy2.mpq`` when gmpy2 imports and ``fractions.Fraction``
otherwise.  With gmpy2 present, ``allocate --output json`` runs once on each
backend, the second time with gmpy2 blocked, and both runs must print the
same bytes and exit codes.
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

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("gmpy2") is None,
    reason="gmpy2 not installed: only the Fraction backend runs here",
)

SRC = str(Path(cli.__file__).resolve().parents[1])

# argv: "mpq" or "fraction", then instance paths.  Prints the backend and
# each path's exit code and stdout.
ALLOCATE_EACH = """
import contextlib, io, json, sys
if sys.argv[1] == "fraction":
    sys.modules["gmpy2"] = None
from leximinflow import cli
from leximinflow.rational import Rational
outputs = []
for path in sys.argv[2:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["allocate", path, "--output", "json"])
    outputs.append([code, out.getvalue()])
print(json.dumps([f"{Rational.__module__}.{Rational.__name__}", outputs]))
"""


def allocate_each(backend: str, paths: list[str]):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", ALLOCATE_EACH, backend, *paths],
        capture_output=True, text=True, env=env, timeout=600, check=True,
    )
    return json.loads(done.stdout)


def test_allocate_json_identical_under_both_backends(corpus, tmp_path):
    paths = []
    for i, inst in enumerate(corpus[:40] + [staircase(n) for n in range(2, 25)]):
        path = tmp_path / f"{i}.json"
        save_instance(inst, str(path))
        paths.append(str(path))
    mpq_backend, mpq_outputs = allocate_each("mpq", paths)
    fraction_backend, fraction_outputs = allocate_each("fraction", paths)
    assert (mpq_backend, fraction_backend) == ("gmpy2.mpq", "fractions.Fraction")
    assert fraction_outputs == mpq_outputs
