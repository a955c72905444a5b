"""The benchmark's per-layer table names functions of the package.

``perfbench/spans.py`` traces each layer by rebinding the module-level name
listed in its ``LAYERS`` table, and reports a name it cannot find as absent
rather than failing. So a rename in the package would silently turn that
layer's metrics into "absent"; the first test makes it fail instead, reading
the table from the file's source, without importing the benchmark. The second
runs a few traced searches as the benchmark's traced mode does, and checks
that every per-layer figure the benchmark declares comes out as a number.
"""

import ast
import importlib
import json
import math
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


def test_traced_search_gives_every_layer_figure(tmp_path, monkeypatch):
    # The benchmark's traced mode reports a per-layer figure as null when
    # its layer is present but never called, and a null in its last line
    # makes the traced run unusable. So a search that stops calling one of
    # the traced names through its module-level binding must fail here.
    # Only the benchmark's standard-library and package-only modules are
    # imported; its machine facts need SciPy.
    monkeypatch.syspath_prepend(str(SPANS.parent))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    spec = json.loads((SPANS.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"] if m["name"] in spans.LAYER_UNITS]
    assert len(names) == 15
    restart_log, tracer = spans.RestartLog(), spans.Tracer()
    base, patches = spans.Patches(), spans.Patches()
    try:
        assert restart_log.install(base)
        tracer.install(patches)
        for op in workloads.make("realizable_2x2", str(tmp_path), {})[:3]:
            tracer.op = op.label
            assert op.run()["outcome"] == op.expected
    finally:
        patches.restore()
        base.restore()
    metrics = spans.layer_metrics(tracer, restart_log.entries)
    for name in names:
        assert metrics[name] is not None and math.isfinite(metrics[name]), name
