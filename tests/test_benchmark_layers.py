"""The benchmark's per-layer table names functions of the package.

``perfbench/spans.py`` traces each layer by rebinding the module-level name
listed in its ``LAYERS`` table, and reports a name it cannot find as absent
rather than failing. So a rename in the package would silently turn that
layer's metrics into "absent"; this test makes it fail instead. The table is
read from the file's source, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def layers():
    """The (span name, module, attribute) rows of ``LAYERS``."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no LAYERS table")


LAYERS = layers()


@pytest.mark.parametrize(
    "name, module, attribute", LAYERS, ids=[row[0] for row in LAYERS]
)
def test_layer_resolves(name, module, attribute):
    value = importlib.import_module(module)
    for part in attribute.split("."):
        value = getattr(value, part)
    assert callable(value), name
