import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import re
import shlex
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from orderfusion import cli
from orderfusion.baselines import MLPConfig
from orderfusion.cli import dispatch, read_kv_config
from orderfusion.market import MarketConfig, build_dataset, parse_trades
from orderfusion.model import ModelConfig, init_params
from orderfusion.synth import SynthConfig
from orderfusion.training import TrainConfig

RUN_CONFIG = """
# tiny configuration for fast end-to-end runs
market = DE
index = 1
hidden_dim = 4
interaction_degree = 1
cutoff_exponent = 3
t_max = 16
epochs = 2
batch_size = 128
lr0 = 0.005
decay = 0.95
seed = 0
"""

SYNTH_CONFIG = """
n_days = 4
arrival_rate_per_min = 0.25
session_minutes = 200
seed = 0
"""


def with_keys(base: str, **keys) -> str:
    """``base`` with each of ``keys`` set once: a line that already sets one
    is dropped, since a config file may name a key only once."""
    lines = [ln for ln in base.splitlines() if ln.split("=", 1)[0].strip() not in keys]
    return "\n".join(lines + [f"{k} = {v}" for k, v in keys.items()]) + "\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "run.cfg").write_text(RUN_CONFIG)
    (root / "synth.cfg").write_text(SYNTH_CONFIG)
    code = dispatch(["synth", "--config", str(root / "synth.cfg"), "--out", str(root / "data")])
    assert code == 0
    return root


def test_kv_config_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 1\n# comment\nmarket = AT  # trailing\n\n")
    assert read_kv_config(path) == ({"seed": "1", "market": "AT"},
                                    {"seed": f"{path}:1", "market": f"{path}:3"})


class TestSynthIngest:
    def test_synth_outputs_and_manifest(self, workspace):
        data = workspace / "data"
        assert (data / "trades.csv").exists()
        assert (data / "labels.csv").exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"]
        assert manifest["artifact_version"]

    def test_ingest_report(self, workspace):
        out = workspace / "ingest"
        code = dispatch(["ingest", "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["n_samples"] > 0
        assert "notes" in report


class TestTrainEvaluate:
    def test_end_to_end(self, workspace):
        data = str(workspace / "data" / "trades.csv")
        train_out = workspace / "model"
        code = dispatch(["train", "--config", str(workspace / "run.cfg"),
                         "--data", data, "--out", str(train_out)])
        assert code == 0
        assert (train_out / "checkpoint.json").exists()
        with open(train_out / "training_log.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_aql", "val_aql", "lr"]
        assert len(rows) == 3  # header + 2 epochs

        eval_out = workspace / "eval"
        code = dispatch(["evaluate", "--checkpoint", str(train_out / "checkpoint.json"),
                         "--data", data, "--out", str(eval_out)])
        assert code == 0
        metrics = json.loads((eval_out / "metrics.json").read_text())
        assert set(["aql", "aqcr", "aiw", "rmse", "mae", "r2", "n_samples"]) <= set(metrics)
        with open(eval_out / "predictions.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["delivery_start", "y_true", "q10", "q25", "q45", "q50", "q55", "q75", "q90"]

    def test_predict(self, workspace):
        out = workspace / "pred"
        code = dispatch(["predict", "--checkpoint", str(workspace / "model" / "checkpoint.json"),
                         "--data", str(workspace / "data" / "trades.csv"), "--out", str(out)])
        assert code == 0
        assert (out / "predictions.csv").exists()

    def test_determinism_same_manifest_inputs(self, workspace):
        data = str(workspace / "data" / "trades.csv")
        out_a, out_b = workspace / "det_a", workspace / "det_b"
        for out in (out_a, out_b):
            assert dispatch(["train", "--config", str(workspace / "run.cfg"),
                             "--data", data, "--out", str(out)]) == 0
        assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()
        assert (out_a / "training_log.csv").read_bytes() == (out_b / "training_log.csv").read_bytes()


class TestBaselineAblateReport:
    def test_naive_baseline(self, workspace):
        out = workspace / "naive1"
        code = dispatch(["baseline", "--data", str(workspace / "data" / "trades.csv"),
                         "--variant", "naive1", "--out", str(out)])
        assert code == 0
        with open(out / "baseline_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["model"] == "naive1"
        assert float(rows[0]["aqcr"]) == 0.0

    def test_feature_baseline_reports_both_learners(self, workspace):
        cfg = workspace / "run.cfg"
        out = workspace / "vwap15"
        code = dispatch(["baseline", "--data", str(workspace / "data" / "trades.csv"),
                         "--config", str(cfg), "--variant", "vwap15", "--out", str(out)])
        assert code == 0
        with open(out / "baseline_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["model"] for r in rows} == {"vwap15_lqr", "vwap15_mlp"}
        assert sorted(r["best_of_pair"] for r in rows) == ["no", "yes"]

    def test_ablate_tags_variant(self, workspace):
        out = workspace / "ablate"
        code = dispatch(["ablate", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--variant", "reverse_mask", "--out", str(out)])
        assert code == 0
        with open(out / "ablation_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["model"] == "reverse_mask"

    def test_ablate_scores_raw_test_labels(self, tmp_path, monkeypatch):
        # seed 24: one test label of this market does not survive the round
        # trip through the label scaler (x -> (x - median) / iqr -> back)
        (tmp_path / "synth.cfg").write_text(with_keys(SYNTH_CONFIG, seed=24))
        (tmp_path / "run.cfg").write_text(RUN_CONFIG)
        assert dispatch(["synth", "--config", str(tmp_path / "synth.cfg"),
                         "--out", str(tmp_path / "data")]) == 0
        data = tmp_path / "data" / "trades.csv"
        scored, evaluate = [], cli.evaluate_forecasts
        spy = lambda y_true, *rest: scored.append(y_true) or evaluate(y_true, *rest)
        monkeypatch.setattr(cli, "evaluate_forecasts", spy)
        assert dispatch(["ablate", "--config", str(tmp_path / "run.cfg"), "--data", str(data),
                         "--variant", "dual_mask", "--out", str(tmp_path / "o")]) == 0
        samples, _ = build_dataset(parse_trades(data), MarketConfig.for_market("DE", 1))
        test = samples[int(len(samples) * 0.85):]
        np.testing.assert_array_equal(scored[0], [s.label for s in test])

    def test_report_aggregates(self, workspace):
        out = workspace / "report"
        code = dispatch(["report", "--out", str(out),
                         str(workspace / "naive1" / "baseline_results.csv"),
                         str(workspace / "vwap15" / "baseline_results.csv")])
        assert code == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        models = {r["model"] for r in rows}
        assert {"naive1", "vwap15_lqr", "vwap15_mlp"} <= models
        assert all("+-" in r["aql_mean_std"] for r in rows)

    @pytest.mark.parametrize("text, line, message", [
        ("model,index,aql\nm,1,1.0\nm,1,abc\n", 3, "aql = 'abc' is not a finite number"),
        ("model,index,aql\nm,1,nan\n", 2, "aql = 'nan' is not a finite number"),
        ("model\nm\n", 2, "a result row needs index"),
        ("model,index,aql\nm,,1.0\n", 2, "a result row needs index"),
        ("model,index,aql,aqcr\nm,1,,0.5\n", 2, "a result row needs aql"),
        ("model,index,aql,rmse\nm,1,1.0,1.0\nm,1,2.0,x\n", 3, "rmse = 'x' is not a finite number"),
    ], ids=["aql_not_a_number", "aql_nan", "model_only", "no_index", "no_aql",
            "rmse_not_a_number"])
    def test_report_rejects_malformed_rows(self, tmp_path, caplog, text, line, message):
        results = tmp_path / "results.csv"
        results.write_text(text)
        assert dispatch(["report", "--out", str(tmp_path / "o"), str(results)]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        assert not (tmp_path / "o" / "report.csv").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {results}:{line}: {message}"], errors

    def test_report_reads_an_empty_r2(self, tmp_path):
        results = tmp_path / "results.csv"
        results.write_text("model,index,aql,r2\nm,1,1.0,\nm,1,3.0,0.5\n")
        assert dispatch(["report", "--out", str(tmp_path / "o"), str(results)]) == 0
        with open(tmp_path / "o" / "report.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["n_rows"], row["aql_mean_std"], row["r2_mean_std"]) == ("2", "2.00 +- 1.41",
                                                                              "0.50 +- 0.00")


class TestCommandVariants:
    def test_gridsearch_budget(self, workspace):
        out = workspace / "grid"
        code = dispatch(["gridsearch", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--budget", "2", "--out", str(out)])
        assert code == 0
        with open(out / "gridsearch.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        best = json.loads((out / "gridsearch_best.json").read_text())
        assert best["0"]["val_aql"] == min(float(r["val_aql"]) for r in rows)

    def test_ablate_posthoc_sort_ensemble_never_crosses(self, workspace):
        out = workspace / "posthoc_sort"
        code = dispatch(["ablate", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--variant", "posthoc_sort", "--out", str(out)])
        assert code == 0
        with open(out / "ablation_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["model"] for r in rows] == ["posthoc_sort"]
        assert float(rows[0]["aqcr"]) == 0.0

    @pytest.mark.parametrize("variant, models", [
        ("naive2", {"naive2"}),
        ("last_price", {"last_price_lqr", "last_price_mlp"}),
    ])
    def test_baseline_variant(self, workspace, variant, models):
        out = workspace / variant
        code = dispatch(["baseline", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--variant", variant, "--out", str(out)])
        assert code == 0
        with open(out / "baseline_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["model"] for r in rows} == models
        assert all(int(r["n_samples"]) > 0 for r in rows)

    def test_naive_baseline_without_history_is_data_error(self, workspace, tmp_path):
        # No test delivery of the 4-day market has labels 24, 48 and 72 hours
        # earlier; test_scripts runs naive3 on a market that has them.
        assert dispatch(["baseline", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--variant", "naive3", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("variant", ["vwap15", "last_price"])
    def test_feature_baseline_without_validation_features_is_data_error(self, tmp_path, variant):
        # 20 hourly deliveries split 14/3/3; the 3 validation deliveries
        # trade only inside the label window, after the forecast time.
        fmt = lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ")
        rows = ["delivery_start,side,price,volume,transaction_time"]
        for i in range(20):
            delivery = datetime(2024, 1, 2, tzinfo=timezone.utc) + timedelta(hours=i)
            for minutes in ((45,) if 14 <= i < 17 else (90, 45)):
                for side in "+-":
                    rows.append(f"{fmt(delivery)},{side},{50 + i},1.0,"
                                f"{fmt(delivery - timedelta(minutes=minutes))}")
        data = tmp_path / "trades.csv"
        data.write_text("\n".join(rows) + "\n")
        assert dispatch(["baseline", "--data", str(data), "--variant", variant,
                         "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()


# flags that once set a run value the config file now holds alone
RETIRED_FLAGS = [("--seed", "1"), ("--market", "AT"), ("--index", "2")]


MANIFEST_KEYS = {"command", "config_path", "seed", "flags", "environment", "inputs", "outputs",
                 "wall_clock_seconds", "peak_rss_mb", "minor_faults", "artifact_version"}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_synth_imports_no_model_code(workspace, tmp_path):
    """A command imports only the modules it runs: ``synth``, in a fresh
    interpreter, leaves the model and training modules unimported."""
    src = Path(cli.__file__).resolve().parents[1]
    script = ("import sys; from orderfusion.cli import dispatch; rc = dispatch(sys.argv[1:]); "
              "print(rc, *sorted(m for m in sys.modules if m.startswith('orderfusion.')))")
    proc = subprocess.run([sys.executable, "-c", script, "synth", "--config",
                           str(workspace / "synth.cfg"), "--out", str(tmp_path / "data")],
                          env={**os.environ, "PYTHONPATH": str(src), "ORDERFUSION_LOG": "error"},
                          capture_output=True, text=True, timeout=120)
    rc, *modules = proc.stdout.split()
    assert rc == "0", proc.stderr
    assert "orderfusion.synth" in modules
    assert "orderfusion.model" not in modules and "orderfusion.training" not in modules, modules


class TestManifest:
    @pytest.fixture(scope="class")
    def runs(self, workspace):
        """Every command once, with --config wherever it is accepted; maps
        each command to its output directory and the files it was given.
        ``predict`` and ``evaluate`` take no --config: they read their run
        from the checkpoint."""
        cfg = str(workspace / "run.cfg")
        data = str(workspace / "data" / "trades.csv")
        root = workspace / "manifests"
        ckpt = str(root / "train" / "checkpoint.json")
        argvs = {
            "synth": ["--config", str(workspace / "synth.cfg")],
            "ingest": ["--config", cfg, "--data", data],
            "train": ["--config", cfg, "--data", data],
            "gridsearch": ["--config", cfg, "--data", data, "--budget", "1"],
            "predict": ["--data", data, "--checkpoint", ckpt],
            "evaluate": ["--data", data, "--checkpoint", ckpt],
            "baseline": ["--config", cfg, "--data", data, "--variant", "naive1"],
            "ablate": ["--config", cfg, "--data", data, "--variant", "dual_mask"],
            "report": [str(root / "ablate" / "ablation_results.csv")],
        }
        for command, argv in argvs.items():
            assert dispatch([command, "--out", str(root / command)] + argv) == 0, command
        return {command: (root / command, [a for a in argv if Path(a).is_file()])
                for command, argv in argvs.items()}

    @pytest.mark.parametrize("command", ["synth", "ingest", "train", "gridsearch", "predict",
                                         "evaluate", "baseline", "ablate", "report"])
    def test_manifest_hashes_every_file_read(self, runs, command):
        out, given = runs[command]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command"] == command
        assert manifest["inputs"] == {p: sha256(p) for p in given}
        config = [p for p in given if p.endswith(".cfg")]
        assert manifest["config_path"] == (config[0] if config else None)
        assert manifest["outputs"] and all(Path(p).is_file() for p in manifest["outputs"])
        assert manifest["outputs"] == {p: sha256(p) for p in manifest["outputs"]}
        assert isinstance(manifest["seed"], int)

    def test_train_records_its_process_memory(self, runs):
        manifest = json.loads((runs["train"][0] / "manifest.json").read_text())
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] >= 0
        assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] >= 0

    def test_records_flags_and_environment(self, workspace, tmp_path):
        """Two baselines on the same data differ in their manifests' flags,
        which leave out --out; the environment is the running one."""
        cfg, data = str(workspace / "run.cfg"), str(workspace / "data" / "trades.csv")
        for variant in ("naive1", "vwap15"):
            out = tmp_path / variant
            assert dispatch(["baseline", "--variant", variant, "--config", cfg, "--data", data,
                             "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["flags"] == {"config": cfg, "data": data, "variant": variant}
            env = manifest["environment"]
            assert set(env) == {"python", "numpy", "blas_name", "blas_version", "num_threads"}
            assert env["python"] == sys.version and env["numpy"] == np.__version__
            assert all(k.endswith("_NUM_THREADS") for k in env["num_threads"])

    def test_scoring_records_checkpoint_seed(self, workspace, tmp_path):
        cfg, data = tmp_path / "seed5.cfg", str(workspace / "data" / "trades.csv")
        cfg.write_text(with_keys(RUN_CONFIG, seed=5))
        assert dispatch(["train", "--config", str(cfg), "--data", data,
                         "--out", str(tmp_path / "m")]) == 0
        checkpoint = tmp_path / "m" / "checkpoint.json"
        assert json.loads(checkpoint.read_text())["config"]["seed"] == 5
        for command in ("evaluate", "predict"):
            out = tmp_path / command
            assert dispatch([command, "--checkpoint", str(checkpoint), "--data", data,
                             "--out", str(out)]) == 0
            assert json.loads((out / "manifest.json").read_text())["seed"] == 5


class TestCheckpointMarket:
    @pytest.fixture(scope="class")
    def checkpoints(self, workspace):
        """One DE-trained checkpoint saved as trained, with its market
        rewritten to AT (gate closure offset 0) or to malformed values,
        without a market, and in the earlier format, which kept the market
        and best epoch under ``extra`` and repeated the seed at top level."""
        out = workspace / "market_model"
        assert dispatch(["train", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(out)]) == 0
        payload = json.loads((out / "checkpoint.json").read_text())
        assert payload["market"] == {"index": 1, "delta_c_minutes": 30}
        for name, market in [("at", {"index": 1, "delta_c_minutes": 0}),
                             ("index_5", {"index": 5, "delta_c_minutes": 30}),
                             ("index_true", {"index": True, "delta_c_minutes": 30}),
                             ("index_str", {"index": "1", "delta_c_minutes": 30}),
                             ("no_index", {"delta_c_minutes": 30}),
                             ("market_list", [1, 30])]:
            (out / f"{name}.json").write_text(json.dumps({**payload, "market": market}))
        bare = {k: v for k, v in payload.items() if k not in ("market", "best_epoch")}
        (out / "no_market.json").write_text(json.dumps(bare))
        (out / "extra.json").write_text(json.dumps(
            {**bare, "seed": payload["config"]["seed"],
             "extra": {"best_epoch": payload["best_epoch"], "market": payload["market"]}}))
        return out

    def evaluate(self, workspace, checkpoint, out):
        return dispatch(["evaluate", "--checkpoint", str(checkpoint),
                         "--data", str(workspace / "data" / "trades.csv"), "--out", str(out)])

    def test_recorded_market_is_scored(self, workspace, checkpoints, tmp_path):
        assert self.evaluate(workspace, checkpoints / "at.json", tmp_path / "at") == 0
        assert self.evaluate(workspace, checkpoints / "checkpoint.json", tmp_path / "de") == 0
        assert ((tmp_path / "at" / "predictions.csv").read_bytes()
                != (tmp_path / "de" / "predictions.csv").read_bytes())

    def test_no_market_is_data_error(self, workspace, checkpoints, tmp_path, caplog):
        assert self.evaluate(workspace, checkpoints / "no_market.json", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "market is None" in errors[0], errors

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("name", ["extra", "no_market", "index_5", "index_true", "index_str",
                                      "no_index", "market_list"])
    def test_malformed_recorded_market_is_data_error(self, workspace, checkpoints, tmp_path,
                                                     caplog, command, name):
        checkpoint = checkpoints / f"{name}.json"
        assert dispatch([command, "--checkpoint", str(checkpoint),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and str(checkpoint) in errors[0], errors
        assert "unreadable checkpoint" in errors[0]

    @pytest.mark.parametrize("key, value", [("fusion_variant", "fusion"),
                                            ("projection_bias", True)])
    def test_checkpoint_with_a_retired_key_is_data_error(self, workspace, checkpoints, tmp_path,
                                                         caplog, key, value):
        # what a checkpoint from before the keys were retired holds
        payload = json.loads((checkpoints / "checkpoint.json").read_text())
        payload["config"][key] = value
        checkpoint = tmp_path / "old.json"
        checkpoint.write_text(json.dumps(payload))
        assert dispatch(["predict", "--checkpoint", str(checkpoint),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "unreadable checkpoint" in errors[0] and key in errors[0]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workspace, capsys):
        assert dispatch(["train", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, workspace):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, workspace, tmp_path):
        assert dispatch(["ingest", "--data", str(tmp_path / "absent.csv"),
                         "--out", str(tmp_path / "o")]) == 2

    def test_malformed_csv_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("delivery_start,side,price,volume,transaction_time\nnonsense,+,1,1,also\n")
        assert dispatch(["ingest", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_undecodable_last_line_is_data_error(self, workspace, tmp_path, caplog):
        data = (workspace / "data" / "trades.csv").read_bytes()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data + b"\xff")
        last = data.count(b"\n") + 1
        assert dispatch(["ingest", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: line {last}: not valid UTF-8"]

    def test_undecodable_config_is_data_error(self, tmp_path, caplog):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\r\n# comment\rn_days = \xff\n")
        assert dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {cfg}:3: not valid UTF-8"]

    def test_undecodable_result_row_is_data_error(self, tmp_path, caplog):
        results = tmp_path / "results.csv"
        results.write_bytes(b"model,index,aql\nm,1,1.0\nm\xff,1,2.0\nm,1,3.0\n")
        assert dispatch(["report", "--out", str(tmp_path / "o"), str(results)]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {results}:3: not valid UTF-8"]

    @pytest.mark.parametrize("offset", ["+01:75", "+24:00"])
    def test_offset_out_of_range_is_data_error(self, tmp_path, caplog, offset):
        bad = tmp_path / "bad.csv"
        bad.write_text("delivery_start,side,price,volume,transaction_time\n"
                       "2024-07-23T18:00:00Z,+,1,1,2024-07-23T16:00:00Z\n"
                       f"2024-07-23T18:00:00Z,+,1,1,2024-07-23T16:00:00{offset}\n")
        assert dispatch(["ingest", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith("data error: line 3: bad timestamp"), errors

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numerical_failure(self, workspace, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(with_keys(RUN_CONFIG, lr0="1e160", epochs=6))
        assert dispatch(["train", "--config", str(cfg),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(tmp_path / "o")]) == 3

    def test_invalid_log_level_is_usage_error(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ORDERFUSION_LOG", "verbose")
        results = tmp_path / "results.csv"
        results.write_text("model,index,aql\nm,1,1.0\n")
        assert dispatch(["report", "--out", str(tmp_path / "o"), str(results)]) == 1
        assert "error|info|debug" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_log_level_is_set_on_every_dispatch(self, tmp_path, monkeypatch, caplog):
        results = tmp_path / "results.csv"
        results.write_text("model,index,aql\nm,1,1.0\n")
        try:
            for i, (level, logged) in enumerate([("error", False), ("info", True), ("error", False)]):
                monkeypatch.setenv("ORDERFUSION_LOG", level)
                caplog.clear()
                assert dispatch(["report", "--out", str(tmp_path / str(i)), str(results)]) == 0
                assert any("report: aggregated" in r.getMessage() for r in caplog.records) == logged
        finally:
            logging.getLogger("orderfusion").setLevel(logging.NOTSET)

    @pytest.mark.parametrize("command, key, value", [
        ("train", "market", "FR"), ("train", "index", "5"), ("train", "hidden_dim", "0"),
        ("train", "mask_variant", "bogus"), ("train", "epochs", "0"),
        ("synth", "n_days", "0"), ("synth", "market", "FR"),
        ("gridsearch", "grid_hidden_dim", "abc"), ("gridsearch", "grid_hidden_dim", "0"),
        ("gridsearch", "grid_cutoff_exponent", "9"),
        ("baseline", "epochs", "0"), ("baseline", "batch_size", "0"),
        ("baseline", "mlp_hidden_size", "0"), ("baseline", "mlp_dropout", "1.0"),
        ("baseline", "mlp_dropout", "-0.5"), ("baseline", "mlp_n_layers", "-1"),
        ("train", "interaction_degree", "-1"), ("synth", "start", "yesterday"),
        ("train", "train_end", "soon"), ("train", "train_end", "2024-01-03T00:00:00Z"),
        ("baseline", "val_end", "2024-01-04T00:00:00Z"),
        ("train", "hidden_dim", "abc"), ("train", "cutoff_exponent", "5"),
        # once NumPy tracebacks or NaN prices from synth
        ("synth", "anchor_vol", "-1"), ("synth", "offset_sigma", "-1"),
        ("synth", "jump_size_mean", "-1"), ("synth", "jump_intensity_per_hour", "-1"),
        ("synth", "jump_intensity_per_hour", "nan"), ("synth", "session_minutes", "-5"),
        ("synth", "arrival_rate_per_min", "nan"), ("synth", "arrival_rate_per_min", "inf"),
        ("synth", "base_price", "nan"), ("synth", "vol_per_hour", "nan"),
        # once exit 3, or a learning rate that climbs the loss
        ("train", "lr0", "nan"), ("train", "lr0", "inf"), ("baseline", "lr0", "nan"),
        ("baseline", "lr0", "inf"), ("train", "lr0", "-1"), ("train", "decay", "-0.5"),
        # once OverflowError tracebacks: a volume past the float range, a label
        # window's price × volume sum past it, and sessions past the years 1-9999
        ("synth", "volume_lognorm_mu", "800"), ("synth", "volume_lognorm_mu", "706"),
        ("synth", "start", "9999-12-31T00:00:00Z"), ("synth", "start", "0001-01-01T00:00:00Z"),
    ])
    def test_bad_config_value_is_data_error(self, workspace, tmp_path, caplog, command, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_keys(SYNTH_CONFIG if command == "synth" else RUN_CONFIG, **{key: value}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command != "synth":
            argv += ["--data", str(workspace / "data" / "trades.csv")]
        if command == "baseline":
            argv += ["--variant", "vwap15"]
        assert dispatch(argv) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        # RUN_CONFIG's t_max = 16 takes part: it admits cutoff exponents up to 4
        cited = [key] + (["t_max"] if key in ("cutoff_exponent", "grid_cutoff_exponent") else [])
        assert len(errors) == 1 and key in errors[0], errors
        assert errors[0].startswith(f"data error: {config_lines(cfg, cited)}: "), errors

    @pytest.mark.parametrize("command, minutes", [("ingest", 45), ("train", 45), ("baseline", 70)],
                             ids=["ingest", "train", "baseline_vwap15"])
    @pytest.mark.parametrize("trades", [[(100.0, 1e306), (100.0, 1e306)], [(1e300, 1e300)]],
                             ids=["window_sum_overflows", "price_volume_overflows"])
    def test_overflowing_window_is_data_error(self, workspace, tmp_path, caplog, command,
                                              minutes, trades):
        # contract-valid trades whose VWAP is not finite: once an fsum
        # OverflowError traceback, or an infinite label. 45 minutes before
        # delivery is in the index window; 70, in vwap15's feature window.
        data = tmp_path / "trades.csv"
        text = (workspace / "data" / "trades.csv").read_text()
        delivery = text.splitlines()[1].split(",", 1)[0]
        at = cli.parse_timestamp(delivery) - timedelta(minutes=minutes)
        data.write_text(text + "".join(f"{delivery},+,{price!r},{volume!r},"
                                       f"{at.strftime('%Y-%m-%dT%H:%M:%SZ')}\n"
                                       for price, volume in trades))
        argv = [command, "--config", str(workspace / "run.cfg"), "--data", str(data),
                "--out", str(tmp_path / "o")]
        assert dispatch(argv + (["--variant", "vwap15"] if command == "baseline" else [])) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith(f"data error: delivery {delivery}: "), errors

    @pytest.mark.parametrize("command", ["train", "baseline"])
    @pytest.mark.parametrize("train_frac, val_frac, cited", [
        (-0.3, 1.2, ["train_frac", "val_frac"]), (0.0, 0.5, ["train_frac", "val_frac"]),
        (0.7, 0.3, ["val_frac"]), (0.9, 0.2, ["train_frac"]), (1.0, 0.1, ["train_frac"]),
        (0.5, "nan", ["val_frac"]), (0.8, 0.25, ["train_frac", "val_frac"]),
    ])
    def test_bad_split_fractions_are_data_error(self, workspace, tmp_path, caplog, command,
                                                train_frac, val_frac, cited):
        # -0.3 with 1.2 once wrapped around to a 70/20/10 split and exited 0. A
        # fraction is cited when it is rejected next to the other's default;
        # 0.8 with 0.25 is rejected only together.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_keys(RUN_CONFIG, train_frac=train_frac, val_frac=val_frac))
        assert dispatch([command, "--config", str(cfg), "--data",
                         str(workspace / "data" / "trades.csv"), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "train_frac" in errors[0], errors
        assert errors[0].startswith(f"data error: {config_lines(cfg, cited)}: "), errors

    @pytest.mark.parametrize("key", ["mlp_hidden_size", "epochs"])
    def test_baseline_config_checked_before_parse(self, tmp_path, caplog, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_keys(RUN_CONFIG, **{key: 0}))
        data = tmp_path / "trades.csv"
        data.write_text("not a trade file\n")
        assert dispatch(["baseline", "--variant", "vwap15", "--config", str(cfg),
                         "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and key in errors[0], errors

    @pytest.mark.parametrize("flag, value", [("--budget", "0"), ("--jobs", "0"), ("--jobs", "-3")])
    def test_budget_or_jobs_below_one_is_usage_error(self, workspace, tmp_path, capsys, flag,
                                                     value):
        # --jobs 0 and -3 once ran serially and exited 0
        assert dispatch(["gridsearch", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         flag, value, "--out", str(tmp_path / "o")]) == 1
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        *[[command, "--checkpoint", "c.json", "--data", "t.csv", flag, value]
          for command in ("evaluate", "predict")
          for flag, value in [("--config", "run.cfg"), ("--seed", "99"), ("--market", "AT"),
                              ("--index", "2")]],
        *[["report", flag, value, "results.csv"] for flag, value in RETIRED_FLAGS],
        *[[command, *required, flag, value]
          for command, required in [("synth", []), ("ingest", ["--data", "t.csv"]),
                                    ("train", ["--data", "t.csv"]),
                                    ("gridsearch", ["--data", "t.csv"]),
                                    ("baseline", ["--data", "t.csv"]),
                                    ("ablate", ["--data", "t.csv", "--variant", "dual_mask"])]
          for flag, value in RETIRED_FLAGS],
    ], ids=lambda argv: f"{argv[0]}_{argv[-2] if argv[0] != 'report' else argv[1]}")
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        # each was once accepted, then ignored or only checked; seed, market
        # and index are config keys alone
        assert dispatch(argv + ["--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("content", ["not json\n", '{"magic": "x"}\n', "[]\n"],
                             ids=["not_json", "wrong_magic", "not_an_object"])
    def test_unreadable_checkpoint_is_data_error(self, workspace, tmp_path, command, content):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(content)
        assert dispatch([command, "--checkpoint", str(checkpoint),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("head_tau", ["0.9", "0.5"])
    def test_evaluate_single_head_is_data_error(self, workspace, tmp_path, caplog, head_tau):
        cfg = tmp_path / "single.cfg"
        cfg.write_text(RUN_CONFIG + f"head_variant = single\nhead_tau = {head_tau}\n")
        data = str(workspace / "data" / "trades.csv")
        assert dispatch(["train", "--config", str(cfg), "--data", data,
                         "--out", str(tmp_path / "m")]) == 0
        checkpoint = str(tmp_path / "m" / "checkpoint.json")
        caplog.clear()
        assert dispatch(["evaluate", "--checkpoint", checkpoint, "--data", data,
                         "--out", str(tmp_path / "e")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "head_variant = single" in errors[0]
        assert "\n" not in errors[0]
        assert not (tmp_path / "e" / "manifest.json").exists()
        assert dispatch(["predict", "--checkpoint", checkpoint, "--data", data,
                         "--out", str(tmp_path / "p")]) == 0

    @pytest.mark.parametrize("variant", [v for v, o in cli.ABLATION_VARIANTS.items() if o is not None])
    def test_ablation_override_builds_a_model(self, variant):
        # every arm keeps the input projection; no_fusion differs from the
        # model by its cross-attention alone
        config = dataclasses.replace(ModelConfig(hidden_dim=4, cutoff_exponent=2, t_max=8),
                                     **cli.ABLATION_VARIANTS[variant])
        names = init_params(config).names
        assert {"proj.buy.w", "proj.buy.b", "proj.sell.w", "proj.sell.b"} <= set(names)

    def test_unknown_ablation_variant(self, workspace, tmp_path):
        assert dispatch(["ablate", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--variant", "bogus", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command", ["train", "gridsearch", "ablate"])
    def test_training_split_without_features_is_data_error(self, tmp_path, caplog, command):
        # 12 hourly deliveries whose trades all sit inside the index-1 window,
        # after the forecast time: every sample has a label and no trade row
        # to fit the feature scaler on
        fmt = lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ")
        rows = ["delivery_start,side,price,volume,transaction_time"]
        for i in range(12):
            delivery = datetime(2024, 1, 2, tzinfo=timezone.utc) + timedelta(hours=i)
            rows += [f"{fmt(delivery)},{side},{50 + i},1.0,{fmt(delivery - timedelta(minutes=45))}"
                     for side in "+-"]
        data = tmp_path / "trades.csv"
        data.write_text("\n".join(rows) + "\n")
        argv = [command, "--data", str(data), "--out", str(tmp_path / "o")]
        assert dispatch(argv + (["--variant", "dual_mask"] if command == "ablate" else [])) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {data}: fit_scaler found no trade rows in the training set"]

    @pytest.mark.parametrize("argv", [
        ["ingest", "--data", "{dir}"],
        ["train", "--config", "{dir}", "--data", "{data}"],
        ["predict", "--checkpoint", "{dir}", "--data", "{data}"],
        ["evaluate", "--checkpoint", "{dir}", "--data", "{data}"],
        ["report", "{results}", "{dir}"],
        ["ingest", "--data", "{results}/trades.csv"],
    ], ids=["data", "config", "predict_checkpoint", "evaluate_checkpoint", "report_csv",
            "data_under_a_file"])
    def test_input_path_to_no_file_is_data_error(self, workspace, tmp_path, caplog, argv):
        # a directory, or a path under a file
        (tmp_path / "results.csv").write_text("model,index,aql\nm,1,1.0\n")
        paths = {"dir": str(tmp_path), "data": str(workspace / "data" / "trades.csv"),
                 "results": str(tmp_path / "results.csv")}
        out = tmp_path / "o"
        assert dispatch([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
        assert not (out / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].startswith("data error: "), errors
        assert str(tmp_path) in errors[0] and "\n" not in errors[0]

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_negative_seed_is_data_error(self, workspace, tmp_path, caplog, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(with_keys(SYNTH_CONFIG if command == "synth" else RUN_CONFIG, seed=-1))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command != "synth":
            argv += ["--data", str(workspace / "data" / "trades.csv")]
        assert dispatch(argv) == 2
        assert not (tmp_path / "o").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {config_lines(cfg, ['seed'])}: "
                          "config key seed='-1': a seed must be >= 0"], errors

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        results, out = tmp_path / "results.csv", tmp_path / "taken"
        results.write_text("model,index,aql\nm,1,1.0\n")
        out.write_text("keep\n")
        assert dispatch(["report", "--out", str(out), str(results)]) == 1
        assert f"--out {out}: cannot make the output directory" in capsys.readouterr().err
        assert out.read_text() == "keep\n"


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeCli:
    """README's CLI section and ``cli.build_parser()`` agree."""

    @staticmethod
    def subparsers() -> dict:
        parser = cli.build_parser()
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_example_parses(self):
        block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```", 2)[1]
        examples = [line.split()[1:] for line in block.splitlines()
                    if line.startswith("orderfusion ")]
        assert sorted(argv[0] for argv in examples) == sorted(self.subparsers())
        for argv in examples:
            cli.build_parser().parse_args(argv)     # a usage error raises

    def test_flag_table_lists_each_command_flags(self):
        text = README.read_text(encoding="utf-8").split("| Command | Flags |", 1)[1]
        rows = [line.split("|") for line in text.split("\n\n", 1)[0].splitlines()
                if line.startswith("| `")]
        table = {cells[1].strip().strip("`"): set(re.findall(r"`(--[a-z]+)`", cells[2]))
                 for cells in rows}
        flags = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                 for name, p in self.subparsers().items()}
        assert table == flags


WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"


def shell_commands(line: str) -> list[list[str]]:
    """The words of each simple command of one shell line, split at ``;``,
    ``&&``, ``||`` and ``|``."""
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    commands = [[]]
    for word in lexer:
        if word in (";", "&&", "||", "|"):
            commands.append([])
        else:
            commands[-1].append(word)
    return [c for c in commands if c]


class TestCiWorkflow:
    """CI's workflow, read as plain text, against the parser and pyproject.toml."""

    def test_entry_point_step_parses(self, capsys):
        step = WORKFLOW.read_text(encoding="utf-8").split("- name: Installed entry point", 1)[1]
        script = step.split("run: |", 1)[1].split("- name:", 1)[0]
        lines = [line.strip() for line in script.splitlines()
                 if line.strip() and not line.strip().startswith("#")]
        helps, usage_errors, parsed = 0, 0, []
        for line, after in zip(lines, lines[1:] + [""]):
            for argv in shell_commands(line):
                if argv[0] != "orderfusion":
                    continue
                if argv[1:] == ["--help"]:
                    with pytest.raises(SystemExit) as info:
                        cli.build_parser().parse_args(argv[1:])
                    assert info.value.code == 0
                    helps += 1
                elif "|| rc=$?" in line and '"$rc" -eq 1' in after:     # must exit 1
                    with pytest.raises(cli.UsageError):
                        cli.build_parser().parse_args(argv[1:])
                    usage_errors += 1
                else:
                    parsed.append(cli.build_parser().parse_args(argv[1:]).command)
        assert helps == 1 and usage_errors == 1 and parsed, (helps, usage_errors, parsed)

    def test_floor_leg_installs_the_declared_floor(self):
        pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
        floor = re.search(r'"numpy>=([0-9.]+)"', pyproject)[1]
        pins = re.findall(r'numpy: "numpy==([^"]+)"', WORKFLOW.read_text(encoding="utf-8"))
        assert pins and set(pins) == {f"{floor}.*"}, (floor, pins)


def config_lines(cfg: Path, keys) -> str:
    """``path:line`` of each of ``keys`` in the config file ``cfg``, in file order."""
    lines = cfg.read_text().splitlines()
    return ", ".join(f"{cfg}:{n}" for n, line in enumerate(lines, start=1)
                     if line.split("=", 1)[0].strip() in keys)


PARENT_KEYS = {
    # model
    "hidden_dim", "interaction_degree", "cutoff_exponent", "t_max", "mask_variant",
    "aggregation_variant", "pooling_variant", "head_variant", "head_tau",
    # training
    "epochs", "batch_size", "lr0", "decay",
    # synthetic market
    "n_days", "start", "base_price", "vol_per_hour", "vol_hour_amplitude", "anchor_vol",
    "anchor_reversion", "seasonal_amplitude", "offset_sigma", "jump_intensity_per_hour",
    "jump_size_mean", "arrival_rate_per_min", "volume_lognorm_mu", "volume_lognorm_sigma",
    "half_spread", "coupling", "session_minutes",
    # MLP baseline
    "mlp_hidden_size", "mlp_n_layers", "mlp_dropout",
    # run, split and grid
    "seed", "market", "index", "train_frac", "val_frac", "train_end", "val_end",
    "grid_hidden_dim", "grid_cutoff_exponent", "grid_interaction_degree",
}


def readme_config_block() -> str:
    """The fenced block that follows README's 'Run configuration files'."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = text.split("Run configuration files", 1)[1]
    return after.split("```", 2)[1].split("\n", 1)[1]


# Each dataclass a config builds, with the prefix of its keys.
SECTIONS = ((ModelConfig, ""), (TrainConfig, ""), (SynthConfig, ""), (MLPConfig, "mlp_"))


class TestConfigSchema:
    def test_accepted_keys(self):
        assert cli.CONFIG_KEYS == PARENT_KEYS

    def test_keys_are_the_dataclass_fields(self):
        """Every field that ``_config`` can cast is a key, and every key
        outside the run, split and grid keys is such a field."""
        fields_ = {prefix + f.name for cls, prefix in SECTIONS for f in dataclasses.fields(cls)
                   if f.type in cli._CASTS}
        run_keys = {"seed", "market", "index", "train_frac", "val_frac", "train_end", "val_end",
                    "grid_hidden_dim", "grid_cutoff_exponent", "grid_interaction_degree"}
        assert cli.CONFIG_KEYS == fields_ | run_keys

    def test_readme_lists_every_key_with_its_default(self, tmp_path):
        block = readme_config_block()
        named = {m[1] for m in re.finditer(r"^#? ?([a-z_0-9]+) *=", block, re.MULTILINE)}
        assert named == cli.CONFIG_KEYS
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        cfg, _ = read_kv_config(path)
        for cls, prefix in SECTIONS:
            assert cli._config(cls, cfg, prefix) == cls(), cls

    def test_timestamp_value(self):
        config = cli._config(SynthConfig, {"start": "2024-03-01T00:00:00Z", "seed": "5"})
        assert config.start == datetime(2024, 3, 1, tzinfo=timezone.utc)
        assert config.seed == 5

    @pytest.mark.parametrize("line", ["hiden_dim = 4", "sed = 5", "epochs = 3",
                                      "fusion_variant = no_fusion", "projection_bias = 1"],
                             ids=["misspelt", "misspelt_seed", "repeated",
                                  "retired_fusion_variant", "retired_projection_bias"])
    def test_unknown_or_repeated_key_is_data_error(self, workspace, tmp_path, caplog, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(RUN_CONFIG + line + "\n")
        assert dispatch(["train", "--config", str(cfg),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        where = f"{cfg}:{len(RUN_CONFIG.splitlines()) + 1}:"
        key = line.split()[0]
        assert len(errors) == 1 and where in errors[0] and repr(key) in errors[0], errors
