"""The benchmark's call contract: every ``orderfusion`` function the perfbench
harness expects to trace, and every name it imports, exists.

A rename that breaks either otherwise shows only in the slow
``perfbench/run.py --smoke`` run.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def harness():
    """perfbench's ``layers`` and ``tracing``, imported as the harness does."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("layers", None)
        sys.modules.pop("tracing", None)


def test_expected_calls_are_public_functions(harness):
    layers, tracing = harness
    names = sorted({name for names in layers.EXPECTED.values() for name in names})
    missing = []
    for name in names:
        layer, attr = name.split(".", 1)
        module = importlib.import_module(f"orderfusion.{layer}")
        if name == "tensor.elementwise":        # the traced Tensor dunders
            ok = all(d in vars(module.Tensor) for d in tracing.ELEMENTWISE_DUNDERS)
        else:
            obj = getattr(module, attr, None)
            ok = (layer in tracing.LAYERS and not attr.startswith("_")
                  and name not in tracing.PER_ROW and inspect.isfunction(obj)
                  and obj.__module__ == module.__name__)
        if not ok:
            missing.append(name)
    assert not missing, f"perfbench expects these orderfusion functions: {missing}"


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_imported_names_exist(script):
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orderfusion"):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("orderfusion"):
                    importlib.import_module(a.name)
    assert not missing, f"{script} imports names orderfusion lacks: {missing}"
