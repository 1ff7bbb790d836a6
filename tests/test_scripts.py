"""The experiment scripts run end to end through ``cli.dispatch``."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The smallest markets on which every step exits 0: naive3 needs three days
# of same-hour history before the test deliveries.
@pytest.mark.parametrize("name, size", [
    ("run_synth_experiment", ["--days", "5", "--epochs", "1"]),
    ("run_ablations", ["--days", "1", "--epochs", "1"]),
])
def test_script_runs_every_step(name, size, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, "--out", str(tmp_path), *size])
    assert load_script(name).main() == 0
    assert (tmp_path / "report" / "report.csv").is_file()
