"""Per-layer metrics derived from the spans and counts of a traced run."""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import LAYERS, summarize

CLI_COMMANDS = ("synth", "ingest", "train", "evaluate", "predict", "baseline")

_SYNTH = ("synth.gen_market", "synth.write_market", "market.write_trades",
          "market.compute_index_label", "cli.write_manifest")
_TRAIN = ("market.parse_trades", "market.build_dataset", "market.fit_scaler",
          "market.apply_scaler", "model.encode_samples", "masking.pad_side",
          "masking.build_dual_mask", "training.train", "training.lr_at", "training.aql_loss",
          "training.adam_step", "model.predict_batch", "model.input_project",
          "model.cross_attention_fuse", "model.aggregate_and_pool", "model.hierarchical_head",
          "model.save_checkpoint", "tensor.backward", "tensor.matmul", "tensor.softmax_rows",
          "tensor.swish", "tensor.transpose", "tensor.concat_cols", "tensor.mean_rows",
          "tensor.abs_", "tensor.maximum", "tensor.mean_all", "tensor.elementwise")
_SCORE = ("model.load_checkpoint", "evaluation.evaluate_forecasts", "evaluation.write_plot_csv",
          "baselines.naive_point", "baselines.naive_probabilistic", "baselines.feature_vwap15",
          "baselines.lqr_fit", "baselines.mlp_fit")

# Functions each workload's traced run must call at least once. A rename that
# drops one of these fails the run instead of silently zeroing its layer.
EXPECTED = {
    "train_small": _SYNTH + _TRAIN + _SCORE,    # with the data-path commands
    "train_wide": _SYNTH + _TRAIN,
}


class Counts:
    """Counts observed at layer boundaries, fed by the tracer's result hook."""

    def __init__(self, runner):
        self.runner = runner
        self.parsed_rows = 0
        self.trades_generated = 0
        self.deliveries = 0
        self.samples = 0
        self.samples_by_command = defaultdict(list)
        self.mask_rows = 0
        self.mask_active = 0

    def __call__(self, name, result):
        if name == "market.parse_trades":
            self.parsed_rows += len(result)
        elif name == "market.build_dataset":
            samples, report = result
            self.samples += len(samples)
            self.deliveries += report.n_deliveries
            self.samples_by_command[self.runner.command].append(len(samples))
        elif name == "masking.build_dual_mask":
            self.mask_rows += result.combined.size
            self.mask_active += int((result.combined == 1.0).sum())
        elif name == "synth.gen_market":
            self.trades_generated += len(result[0])


def _training(spans) -> dict[str, float]:
    """Epochs start at each ``lr_at`` call inside ``train``; a step runs from
    the ``predict_batch`` before an ``adam_step`` to that step's end."""
    kids = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            kids[parent].append(i)
    epochs, steps, aql_s, adam_s = [], [], 0.0, 0.0
    for i, (name, start, end, _) in enumerate(spans):
        if name != "training.train":
            continue
        marks = [spans[k][1] for k in kids[i] if spans[k][0] == "training.lr_at"] + [end]
        epochs += [b - a for a, b in zip(marks, marks[1:])]
        forward_start = None
        for k in kids[i]:
            kname, kstart, kend, _ = spans[k]
            if kname == "model.predict_batch":
                forward_start = kstart
            elif kname == "training.aql_loss":
                aql_s += kend - kstart
            elif kname == "training.adam_step" and forward_start is not None:
                adam_s += kend - kstart
                steps.append(kend - forward_start)
    n = len(steps)
    step_ms = np.array(steps) * 1e3 if n else np.zeros(1)
    return {
        "training.epoch_s": statistics.median(epochs) if epochs else 0.0,
        "training.steps": n,
        "training.step_ms.p50": float(np.percentile(step_ms, 50)),
        "training.step_ms.p90": float(np.percentile(step_ms, 90)),
        "training.aql_loss.ms_per_step": aql_s / n * 1e3 if n else 0.0,
        "training.adam_step.ms_per_step": adam_s / n * 1e3 if n else 0.0,
        "training.epoch_overhead_share": 1.0 - sum(steps) / sum(epochs) if epochs else 0.0,
    }


def layer_metrics(spans, counts: Counts, commands) -> dict[str, float]:
    calls, total, self_time = summarize(spans)
    m = {}
    for name in ("model.predict_batch", "model.encode_samples", "model.save_checkpoint",
                 "model.load_checkpoint", "masking.pad_side", "masking.build_dual_mask",
                 "market.parse_trades", "market.build_dataset", "market.write_trades",
                 "market.fit_scaler", "market.apply_scaler", "synth.gen_market",
                 "training.train", "evaluation.evaluate_forecasts",
                 "evaluation.write_plot_csv", "baselines.lqr_fit", "baselines.mlp_fit",
                 "cli.write_manifest"):
        m[f"{name}.s"] = total[name]
    m["baselines.features.s"] = total["baselines.feature_vwap15"] + total["baselines.feature_last_price"]
    m["baselines.naive.s"] = total["baselines.naive_point"] + total["baselines.naive_probabilistic"]
    m["masking.active_row_fraction"] = counts.mask_active / counts.mask_rows if counts.mask_rows else 0.0
    m["market.parse_trades.calls"] = calls["market.parse_trades"]
    parse_s = total["market.parse_trades"]
    m["market.parse_rows_per_s"] = counts.parsed_rows / parse_s if parse_s else 0.0
    m["market.samples_kept_ratio"] = counts.samples / counts.deliveries if counts.deliveries else 0.0
    gen_calls = calls["synth.gen_market"]
    m["synth.trades"] = counts.trades_generated / gen_calls if gen_calls else 0
    m.update(_training(spans))
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total[f"cli.{command}"]
    m["cli.commands_failed"] = sum(c.rc != 0 for c in commands)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.spans"] = len(spans)
    return m


def command_rates(commands, market, epochs: int) -> dict[str, float]:
    """The CLI throughputs, from the in-process wall time of the traced
    commands: units of work per command over the summed command time."""
    n_train = market.split[0]
    units = {"synth": market.n_trades, "ingest": market.n_trades, "train": n_train * epochs,
             "evaluate": len(market.deliveries), "predict": len(market.deliveries)}
    done, spent = defaultdict(float), defaultdict(float)
    for c in commands:
        kind = "score" if c.argv[0] in ("evaluate", "predict") else c.argv[0]
        done[kind] += units.get(c.argv[0], 0)
        spent[kind] += c.wall_s
    rate = lambda kind: done[kind] / spent[kind] if spent[kind] else 0.0
    return {"cli.synth_trades_per_s": rate("synth"), "cli.ingest_trades_per_s": rate("ingest"),
            "cli.train_samples_per_s": rate("train"),
            "cli.score_deliveries_per_s": rate("score")}


def missing_calls(spans, workload: str) -> list[str]:
    calls, _, _ = summarize(spans)
    return [name for name in EXPECTED[workload] if not calls.get(name)]
