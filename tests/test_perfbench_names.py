"""The benchmark's per-layer names still name public functions of the package.

The benchmark's tracer wraps each public function a layer module defines, plus
the ``core.Pdp`` and ``core.PathLossSample`` constructors. ``BENCHMARK.json``
reports them as ``<layer>.<function>.<metric>`` and the workloads pin call
counts by the same names, so renaming or hiding one breaks a traced run. This
suite reads those names without importing the benchmark, so the rename fails
here too.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLASSES = {"core.Pdp", "core.PathLossSample"}


def _traced_names() -> list[str]:
    """Every ``<layer>.<function>`` named by a per-layer metric or an ``expected`` pin."""
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "expected":
            names.update(key.value for key in node.value.keys)
    return sorted({name.rsplit(".", 1)[0] for name in names if name.count(".") == 2})


def test_the_names_are_found():
    names = _traced_names()
    assert "fileio.parse_campaign_records" in names and "core.Pdp" in names
    assert len(names) >= 25


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_is_a_public_function_of_its_layer(name):
    layer, function = name.split(".")
    module = importlib.import_module(f"mmwindoor.{layer}")
    value = getattr(module, function, None)
    kind = inspect.isclass if name in TRACED_CLASSES else inspect.isfunction
    assert not function.startswith("_") and kind(value), f"mmwindoor.{name} is gone"
    assert value.__module__ == module.__name__ and value.__name__ == function
