"""The benchmark's trace points still exist.

``perfbench/spans.py`` times each layer by replacing module attributes (for
example ``leximinflow.leximin.max_flow``) with timing wrappers.  A rename or a
moved import would silently drop that layer from the trace, so every
(module, attribute) pair it patches must resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
