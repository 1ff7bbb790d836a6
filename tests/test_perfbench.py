"""The benchmark's call contract: every ``orderfusion`` function the perfbench
harness expects to trace exists and is called by the commands it traces, and
every name it imports exists.

A rename or a new code path that breaks any of these otherwise shows only in
the slow ``perfbench/run.py --smoke`` run.
"""

import ast
import dataclasses
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
        for name in ("layers", "tracing", "pipeline"):
            sys.modules.pop(name, None)


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


def test_traced_commands_call_every_expected_function(harness, tmp_path):
    """Each workload's commands, run in process under the harness's tracer on
    a two-day market for one epoch, call every function the workload
    expects: ``synth``, ``train`` at its model shape and, for the workload
    with a scoring pass, ``ingest``, ``evaluate``, ``predict`` and the
    ``naive1`` and ``vwap15`` baselines. (One day is too short for
    ``naive1``: its test hours would have no fitted residuals.)"""
    layers, tracing = harness
    pipeline = importlib.import_module("pipeline")
    from orderfusion import cli

    missing = {}
    for name, workload in pipeline.WORKLOADS.items():
        w = dataclasses.replace(workload, n_days=2, epochs=1, baseline_epochs=1)
        work = tmp_path / name
        work.mkdir()
        cfg = {k: str(v) for k, v in pipeline.write_configs(work, w, seed=7).items()}
        data = str(work / "market" / "trades.csv")
        ckpt = str(work / "train" / "checkpoint.json")
        commands = [["synth", "--config", cfg["synth.cfg"], "--out", str(work / "market")],
                    ["train", "--config", cfg["run.cfg"], "--data", data,
                     "--out", str(work / "train")]]
        if w.scoring_pass:
            commands += [
                ["ingest", "--config", cfg["run.cfg"], "--data", data, "--out", str(work / "i")],
                ["evaluate", "--checkpoint", ckpt, "--data", data, "--out", str(work / "e")],
                ["predict", "--checkpoint", ckpt, "--data", data, "--out", str(work / "p")],
                ["baseline", "--variant", "naive1", "--config", cfg["run.cfg"], "--data", data,
                 "--out", str(work / "naive1")],
                ["baseline", "--variant", "vwap15", "--config", cfg["baseline.cfg"],
                 "--data", data, "--out", str(work / "vwap15")]]
        tracer = tracing.Tracer()
        tracer.install(tracing.load_modules())
        try:
            codes = [cli.dispatch(argv) for argv in commands]
        finally:
            tracer.uninstall()
        assert codes == [0] * len(commands), (name, codes)
        missing[name] = layers.missing_calls(tracer.spans, name)
    assert missing == {name: [] for name in pipeline.WORKLOADS}


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
