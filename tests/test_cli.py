import csv
import hashlib
import json
import logging
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from orderfusion.cli import dispatch, read_kv_config

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
    path.write_text("a = 1\n# comment\nb = two  # trailing\n\n")
    assert read_kv_config(path) == {"a": "1", "b": "two"}


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
                         "--market", "DE", "--index", "1", "--out", str(out)])
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
                         "--market", "DE", "--index", "1",
                         "--variant", "naive1", "--out", str(out)])
        assert code == 0
        with open(out / "baseline_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["model"] == "naive1"
        assert float(rows[0]["aqcr"]) == 0.0

    def test_feature_baseline_reports_both_learners(self, workspace):
        cfg = workspace / "fast_baseline.cfg"
        cfg.write_text(RUN_CONFIG + "\nepochs = 2\n")
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


MANIFEST_KEYS = {"command", "config_path", "seed", "inputs", "outputs",
                 "wall_clock_seconds", "artifact_version"}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifest:
    @pytest.fixture(scope="class")
    def runs(self, workspace):
        """Every command once, with --config wherever it is accepted; maps
        each command to its output directory and the files it was given."""
        cfg = str(workspace / "run.cfg")
        data = str(workspace / "data" / "trades.csv")
        root = workspace / "manifests"
        ckpt = str(root / "train" / "checkpoint.json")
        argvs = {
            "synth": ["--config", str(workspace / "synth.cfg")],
            "ingest": ["--config", cfg, "--data", data],
            "train": ["--config", cfg, "--data", data],
            "gridsearch": ["--config", cfg, "--data", data, "--budget", "1"],
            "predict": ["--config", cfg, "--data", data, "--checkpoint", ckpt],
            "evaluate": ["--config", cfg, "--data", data, "--checkpoint", ckpt],
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
        assert isinstance(manifest["seed"], int)

    def test_scoring_records_checkpoint_seed(self, workspace, runs, tmp_path):
        checkpoint = runs["train"][0] / "checkpoint.json"
        assert dispatch(["evaluate", "--seed", "99", "--checkpoint", str(checkpoint),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(tmp_path)]) == 0
        seed = json.loads(checkpoint.read_text())["seed"]
        for out in (runs["evaluate"][0], tmp_path):
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed


class TestCheckpointMarket:
    @pytest.fixture(scope="class")
    def checkpoints(self, workspace):
        """One DE-trained checkpoint saved three ways: as trained, with the
        market rewritten to AT (gate closure offset 0), and without market."""
        out = workspace / "market_model"
        assert dispatch(["train", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(out)]) == 0
        payload = json.loads((out / "checkpoint.json").read_text())
        assert payload["extra"]["market"] == {"index": 1, "delta_c_minutes": 30}
        payload["extra"]["market"] = {"index": 1, "delta_c_minutes": 0}
        (out / "at.json").write_text(json.dumps(payload))
        del payload["extra"]["market"]
        (out / "no_market.json").write_text(json.dumps(payload))
        return out

    def evaluate(self, workspace, checkpoint, out, *flags):
        return dispatch(["evaluate", "--checkpoint", str(checkpoint),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--out", str(out), *flags])

    def test_no_market_falls_back_to_flags(self, workspace, checkpoints, tmp_path):
        assert self.evaluate(workspace, checkpoints / "at.json", tmp_path / "recorded") == 0
        assert self.evaluate(workspace, checkpoints / "no_market.json", tmp_path / "flag",
                             "--market", "AT") == 0
        assert self.evaluate(workspace, checkpoints / "checkpoint.json", tmp_path / "de") == 0
        at = (tmp_path / "recorded" / "predictions.csv").read_bytes()
        assert (tmp_path / "flag" / "predictions.csv").read_bytes() == at
        assert (tmp_path / "de" / "predictions.csv").read_bytes() != at

    @pytest.mark.parametrize("flags", [["--market", "AT"], ["--index", "2"]])
    def test_flags_contradicting_recorded_market(self, workspace, checkpoints, tmp_path, flags):
        assert self.evaluate(workspace, checkpoints / "checkpoint.json", tmp_path / "o", *flags) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numerical_failure(self, workspace, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(RUN_CONFIG + "\nlr0 = 1e160\nepochs = 6\n")
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
    ])
    def test_bad_config_value_is_data_error(self, workspace, tmp_path, caplog, command, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text((SYNTH_CONFIG if command == "synth" else RUN_CONFIG) + f"{key} = {value}\n")
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        if command != "synth":
            argv += ["--data", str(workspace / "data" / "trades.csv")]
        if command == "baseline":
            argv += ["--variant", "vwap15"]
        assert dispatch(argv) == 2
        assert not (tmp_path / "o" / "manifest.json").exists()
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert any(key in message for message in errors), errors

    @pytest.mark.parametrize("key", ["mlp_hidden_size", "epochs"])
    def test_baseline_config_checked_before_parse(self, tmp_path, caplog, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(RUN_CONFIG + f"{key} = 0\n")
        data = tmp_path / "trades.csv"
        data.write_text("not a trade file\n")
        assert dispatch(["baseline", "--variant", "vwap15", "--config", str(cfg),
                         "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and key in errors[0], errors

    def test_zero_budget_is_usage_error(self, workspace, tmp_path):
        assert dispatch(["gridsearch", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--budget", "0", "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o" / "manifest.json").exists()

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

    def test_unknown_ablation_variant(self, workspace, tmp_path):
        assert dispatch(["ablate", "--config", str(workspace / "run.cfg"),
                         "--data", str(workspace / "data" / "trades.csv"),
                         "--variant", "bogus", "--out", str(tmp_path / "o")]) == 1
