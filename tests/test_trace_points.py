"""The benchmark's trace points still exist and keep their calling contract.

``perfbench/spans.py`` times each layer by replacing module attributes (for
example ``leximinflow.leximin.max_flow``) with timing wrappers.  A rename or a
moved import would silently drop that layer from the trace, so every
(module, attribute) pair it patches must resolve to a callable.  Its tracer
also reads ``len(args[0].edges)`` off each max-flow call, and
``perfbench/run.py`` counts the solves per instance through its own
``leximin.max_flow`` wrapper, so the solver must keep calling both flow
functions through module globals with one positional network.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from conftest import staircase
from leximinflow import leximin

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_patched_attribute_resolves():
    patches = load_patches()
    assert patches
    missing = [
        (module_name, attr)
        for module_name, attr, _ in patches
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def load_solve_labels(monkeypatch):
    """``perfbench/run.py``'s ``solve_labels``; run.py imports its sibling
    modules by plain name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.solve_labels


def test_flow_calls_keep_the_tracer_contract(monkeypatch):
    instance = staircase(5)
    pool = SimpleNamespace(pool=[("s5",)])
    labels = load_solve_labels(monkeypatch)(pool, {"s5": instance})
    calls = []  # (wrapped function, whether min_ratio called it)
    depth = []  # one entry per open min_ratio call

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            # The network comes first and positionally; the tracer takes
            # the len of its edges.
            assert not kwargs and len(args) == (1 if name == "max_flow" else 2)
            len(args[0].edges)
            calls.append((name, bool(depth)))
            return fn(*args)

        return wrapper

    real_min_ratio = leximin.min_ratio

    def traced_min_ratio(*args, **kwargs):
        depth.append(None)
        try:
            return real_min_ratio(*args, **kwargs)
        finally:
            depth.pop()

    for name in ("max_flow", "source_heavy_min_cut"):
        monkeypatch.setattr(leximin, name, wrap(name, getattr(leximin, name)))
    monkeypatch.setattr(leximin, "min_ratio", traced_min_ratio)
    leximin.lexicographic_allocation(instance)

    assert ("max_flow", True) in calls and ("source_heavy_min_cut", True) in calls
    flows = sum(1 for name, _ in calls if name == "max_flow")
    # Four splits and the final flow; the five one-agent tiers take none.
    assert flows == labels["s5"]["max_flow_solves"] == 5
