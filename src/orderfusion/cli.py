"""Command-line operator surface.

Subcommands: synth, ingest, train, gridsearch, predict, evaluate,
baseline, ablate, report. Every run writes exactly one manifest.json into
the output directory with input hashes, so runs are auditable and
reproducible. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure. ORDERFUSION_LOG (error|info|debug) controls logging.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    MLPConfig,
    ResidualQuantiles,
    feature_last_price,
    feature_vwap15,
    lqr_fit,
    lqr_predict,
    mlp_fit,
    naive_point,
    naive_probabilistic,
)
from .evaluation import evaluate_forecasts, write_metric_report, write_plot_csv
from .market import (
    MarketConfig,
    NoLabelError,
    ParseError,
    RobustScaler,
    apply_scaler,
    build_dataset,
    fit_scaler,
    parse_timestamp,
    parse_trades,
)
from .model import (
    ModelConfig,
    encode_samples,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
)
from .synth import SynthConfig, write_market
from .training import DivergenceError, TrainConfig, grid_search, train

log = logging.getLogger("orderfusion")

RESULTS_HEADER = ["model", "fold", "index", "aql", "aqcr", "aiw", "rmse", "mae", "r2",
                  "n_samples", "best_of_pair"]

ABLATION_VARIANTS = {
    "dual_mask": {},
    "no_mask": {"mask_variant": "none"},
    "random_mask": {"mask_variant": "random"},
    "reverse_mask": {"mask_variant": "reverse"},
    "no_fusion": {"fusion_variant": "no_fusion"},
    "k1": {"interaction_degree": 1},
    "k2": {"interaction_degree": 2},
    "k4": {"interaction_degree": 4},
    "no_residual": {"aggregation_variant": "no_residual"},
    "concat_agg": {"aggregation_variant": "concat"},
    "max_pool": {"pooling_variant": "max"},
    "multi_head": {"head_variant": "multi"},
    "single_q": None,       # ensemble of single-quantile models
    "posthoc_sort": None,   # the same ensemble, sorted ascending
}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n\n{self.format_help()}")


# ---------------------------------------------------------------------------
# config files: plain-text "key = value"
# ---------------------------------------------------------------------------


def read_kv_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _get(cfg: dict, key: str, cast, default):
    if key not in cfg:
        return default
    try:
        if cast is bool:
            return cfg[key].lower() in ("1", "true", "yes")
        return cast(cfg[key])
    except ValueError as exc:
        raise DataError(f"config key {key}={cfg[key]!r}: {exc}") from exc


def model_config_from(cfg: dict, seed: int) -> ModelConfig:
    return ModelConfig(
        hidden_dim=_get(cfg, "hidden_dim", int, 8),
        interaction_degree=_get(cfg, "interaction_degree", int, 2),
        cutoff_exponent=_get(cfg, "cutoff_exponent", int, 4),
        t_max=_get(cfg, "t_max", int, 32),
        mask_variant=_get(cfg, "mask_variant", str, "dual"),
        fusion_variant=_get(cfg, "fusion_variant", str, "fusion"),
        aggregation_variant=_get(cfg, "aggregation_variant", str, "residual"),
        pooling_variant=_get(cfg, "pooling_variant", str, "avg"),
        head_variant=_get(cfg, "head_variant", str, "hierarchical"),
        head_tau=_get(cfg, "head_tau", float, 0.50),
        projection_bias=_get(cfg, "projection_bias", bool, True),
        seed=seed,
    )


def train_config_from(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=_get(cfg, "epochs", int, 50),
        batch_size=_get(cfg, "batch_size", int, 512),
        lr0=_get(cfg, "lr0", float, 7e-4),
        decay=_get(cfg, "decay", float, 0.95),
        seed=seed,
    )


def synth_config_from(cfg: dict, seed: int) -> SynthConfig:
    kw = {"seed": seed}
    casts = {
        "n_days": int, "base_price": float, "vol_per_hour": float,
        "vol_hour_amplitude": float, "anchor_vol": float, "anchor_reversion": float,
        "seasonal_amplitude": float, "offset_sigma": float,
        "jump_intensity_per_hour": float, "jump_size_mean": float,
        "arrival_rate_per_min": float, "volume_lognorm_mu": float,
        "volume_lognorm_sigma": float, "half_spread": float, "coupling": float,
        "session_minutes": int,
    }
    for key, cast in casts.items():
        if key in cfg:
            kw[key] = _get(cfg, key, cast, None)
    if "start" in cfg:
        kw["start"] = parse_timestamp(cfg["start"])
    return SynthConfig(**kw)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, config_path, seed, inputs, outputs, started: float):
    manifest = {
        "command": command,
        "config_path": str(config_path) if config_path else None,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_clock_seconds": round(time.time() - started, 3),
        "artifact_version": __version__,
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# shared pipeline steps
# ---------------------------------------------------------------------------


def _market_config(args, cfg: dict) -> MarketConfig:
    market = args.market or cfg.get("market", "DE")
    index = args.index or _get(cfg, "index", int, 1)
    return MarketConfig.for_market(market, int(index))


def _load_samples(data_path, market_cfg: MarketConfig):
    trades = parse_trades(data_path)
    samples, report = build_dataset(trades, market_cfg)
    if not samples:
        raise DataError(f"no usable samples in {data_path}")
    log.info("ingested %d trades -> %d samples (%d dropped, empty window)",
             report.n_trades, report.n_samples, report.n_dropped_empty_window)
    return trades, samples, report


def _split_samples(samples, cfg: dict):
    """Chronological train/val/test split of ``build_dataset``'s samples
    (already in delivery order), by explicit boundary timestamps when the
    config gives them, else by fractions."""
    if "train_end" in cfg and "val_end" in cfg:
        train_end = parse_timestamp(cfg["train_end"])
        val_end = parse_timestamp(cfg["val_end"])
        train = [s for s in samples if s.delivery_start < train_end]
        val = [s for s in samples if train_end <= s.delivery_start < val_end]
        test = [s for s in samples if s.delivery_start >= val_end]
    else:
        train_frac = _get(cfg, "train_frac", float, 0.70)
        val_frac = _get(cfg, "val_frac", float, 0.15)
        n = len(samples)
        i = int(n * train_frac)
        j = int(n * (train_frac + val_frac))
        train, val, test = samples[:i], samples[i:j], samples[j:]
    if not train or not val or not test:
        raise DataError(
            f"degenerate split: {len(train)} train / {len(val)} val / {len(test)} test samples")
    return train, val, test


def _scale_splits(train, val, test):
    feature_scaler, label_scaler = fit_scaler(train)
    scale = lambda group: [apply_scaler(s, feature_scaler, label_scaler) for s in group]
    return scale(train), scale(val), scale(test), feature_scaler, label_scaler


def _predictions_eur(params, config, batch, label_scaler):
    pred = predict_batch(params, config, batch.buy, batch.sell, batch.mask_buy, batch.mask_sell)
    return label_scaler.inverse(pred.data)


def _write_results_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        for row in rows:
            writer.writerow(row)


def _result_row(model, fold, index, report, best_of_pair=""):
    return [model, fold, index, f"{report.aql:.6f}", f"{report.aqcr:.6f}", f"{report.aiw:.6f}",
            f"{report.rmse:.6f}", f"{report.mae:.6f}",
            "" if report.r2 is None else f"{report.r2:.6f}", report.n_samples, best_of_pair]


def _train_singleq_ensemble(model_config: ModelConfig, train_cfg: TrainConfig,
                            train_scaled, val_scaled, quantiles):
    """One full model per quantile level, trained independently."""
    per_tau = []
    for tau in quantiles:
        config = replace(model_config, head_variant="single", head_tau=tau)
        result = train(config, train_scaled, val_scaled, train_cfg)
        per_tau.append((tau, config, result.params))
    return per_tau


def _predict_singleq_ensemble(per_tau, batch, label_scaler, sort_outputs: bool):
    cols = []
    for tau, config, params in per_tau:
        pred = predict_batch(params, config, batch.buy, batch.sell, batch.mask_buy, batch.mask_sell)
        cols.append(pred.data[:, 0])
    stacked = label_scaler.inverse(np.column_stack(cols))
    return np.sort(stacked, axis=1) if sort_outputs else stacked


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args):
    started = time.time()
    cfg = read_kv_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    synth_cfg = synth_config_from(cfg, seed)
    market = args.market or cfg.get("market", "DE")
    delta_c = MarketConfig.for_market(market, 1).delta_c_minutes
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trades_path, labels_path, skipped = write_market(synth_cfg, out, delta_c)
    log.info("synth: wrote %s and %s (%d empty label windows)", trades_path, labels_path, skipped)
    write_manifest(out, "synth", args.config, seed,
                   [args.config] if args.config else [], [trades_path, labels_path], started)
    return 0


def cmd_ingest(args):
    started = time.time()
    cfg = read_kv_config(args.config) if args.config else {}
    market_cfg = _market_config(args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, _, report = _load_samples(args.data, market_cfg)
    report_path = out / "ingest_report.json"
    payload = report.to_dict()
    payload["market_delta_c_minutes"] = market_cfg.delta_c_minutes
    payload["index"] = market_cfg.index_x
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out, "ingest", args.config, args.seed, [args.data], [report_path], started)
    return 0


def _prepare_training(args, cfg):
    market_cfg = _market_config(args, cfg)
    _, samples, _ = _load_samples(args.data, market_cfg)
    train_raw, val_raw, test_raw = _split_samples(samples, cfg)
    return market_cfg, _scale_splits(train_raw, val_raw, test_raw)


def cmd_train(args):
    started = time.time()
    cfg = read_kv_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    model_config = model_config_from(cfg, seed)
    train_cfg = train_config_from(cfg, seed)
    market_cfg, (train_s, val_s, test_s, feat, lab) = _prepare_training(args, cfg)

    result = train(model_config, train_s, val_s, train_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "checkpoint.json"
    save_checkpoint(ckpt_path, model_config, result.params, feat, lab,
                    extra={"best_epoch": result.best_epoch,
                           "market": {"index": market_cfg.index_x,
                                      "delta_c_minutes": market_cfg.delta_c_minutes}})
    log_path = out / "training_log.csv"
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_aql", "val_aql", "lr"])
        for h in result.history:
            writer.writerow([h.epoch, repr(h.train_aql), repr(h.val_aql), repr(h.lr)])
    log.info("train: best epoch %d, val AQL %.6f", result.best_epoch, result.best_val_aql)
    write_manifest(out, "train", args.config, seed,
                   [p for p in [args.data, args.config] if p], [ckpt_path, log_path], started)
    return 0


def cmd_gridsearch(args):
    started = time.time()
    cfg = read_kv_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    base_config = model_config_from(cfg, seed)
    train_cfg = train_config_from(cfg, seed)
    _, (train_s, val_s, _, _, _) = _prepare_training(args, cfg)

    def values(key, default, cast=int):
        raw = cfg.get(key)
        if raw is None:
            return default
        return [cast(v) for v in raw.replace(",", " ").split()]

    max_alpha = int(math.log2(base_config.t_max))
    space = {
        "hidden_dim": values("grid_hidden_dim", [4, 16, 64, 256, 512]),
        "cutoff_exponent": [a for a in values("grid_cutoff_exponent", list(range(0, 11)))
                            if a <= max_alpha],
        "interaction_degree": values("grid_interaction_degree", [1, 2, 4]),
    }
    best, table = grid_search(base_config, train_cfg, space, [(train_s, val_s)],
                              budget=args.budget, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "gridsearch.csv"
    keys = sorted(space)
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fold"] + keys + ["val_aql", "best_epoch"])
        for cell in table:
            writer.writerow([cell.fold] + [cell.overrides.get(k, "") for k in keys]
                            + [repr(cell.val_aql), cell.best_epoch])
    best_path = out / "gridsearch_best.json"
    with open(best_path, "w", encoding="utf-8") as fh:
        json.dump({str(fold): {"overrides": cell.overrides, "val_aql": cell.val_aql}
                   for fold, cell in best.items()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(out, "gridsearch", args.config, seed,
                   [p for p in [args.data, args.config] if p], [table_path, best_path], started)
    return 0


def _load_checkpoint_and_test(args, checkpoint_path):
    config, params, feat, lab = load_checkpoint(checkpoint_path)
    with open(checkpoint_path, encoding="utf-8") as fh:
        extra = json.load(fh).get("extra", {})
    market = extra.get("market", {})
    market_cfg = MarketConfig(index_x=int(market.get("index", args.index or 1)),
                              delta_c_minutes=int(market.get("delta_c_minutes", 30)))
    _, samples, _ = _load_samples(args.data, market_cfg)
    batch = encode_samples([apply_scaler(s, feat, lab) for s in samples], config)
    y_true = np.array([s.label for s in samples])
    return config, params, feat, lab, batch, y_true


def cmd_predict(args):
    started = time.time()
    config, params, feat, lab, batch, y_true = _load_checkpoint_and_test(args, args.checkpoint)
    forecasts = _predictions_eur(params, config, batch, lab)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pred_path = out / "predictions.csv"
    write_plot_csv(pred_path, batch.delivery_starts, y_true, forecasts, config.head_quantiles)
    write_manifest(out, "predict", None, config.seed, [args.data, args.checkpoint],
                   [pred_path], started)
    return 0


def cmd_evaluate(args):
    started = time.time()
    config, params, feat, lab, batch, y_true = _load_checkpoint_and_test(args, args.checkpoint)
    forecasts = _predictions_eur(params, config, batch, lab)
    report = evaluate_forecasts(y_true, forecasts, config.head_quantiles)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "metrics.json"
    write_metric_report(report_path, report)
    plot_path = out / "predictions.csv"
    write_plot_csv(plot_path, batch.delivery_starts, y_true, forecasts, config.head_quantiles)
    log.info("evaluate: AQL %.4f, AQCR %.2f%%, R2 %s", report.aql, report.aqcr,
             "n/a" if report.r2 is None else f"{report.r2:.4f}")
    write_manifest(out, "evaluate", None, config.seed, [args.data, args.checkpoint],
                   [report_path, plot_path], started)
    return 0


def cmd_baseline(args):
    started = time.time()
    cfg = read_kv_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    market_cfg = _market_config(args, cfg)
    trades, samples, _ = _load_samples(args.data, market_cfg)
    train_raw, val_raw, test_raw = _split_samples(samples, cfg)
    quantiles = ModelConfig(hidden_dim=1, cutoff_exponent=0, t_max=1).quantiles
    rows = []

    variant = args.variant or "naive1"

    if variant in ("naive1", "naive2", "naive3"):
        kind = {"naive1": "prev_hour", "naive2": "prev_day_same_hour",
                "naive3": "mean3_same_hour"}[variant]
        train_labels = {s.delivery_start: s.label for s in train_raw + val_raw}
        all_labels = {s.delivery_start: s.label for s in samples}
        residuals = ResidualQuantiles.fit(train_labels, kind, quantiles)
        forecasts, kept_truth, kept_deliveries = [], [], []
        skipped = 0
        for s in test_raw:
            point = naive_point(all_labels, s.delivery_start, kind)
            if point is None or s.delivery_start.hour not in residuals.per_hour:
                skipped += 1
                continue
            forecasts.append(naive_probabilistic(residuals, point, s.delivery_start.hour))
            kept_truth.append(s.label)
            kept_deliveries.append(s.delivery_start)
        if not forecasts:
            raise DataError(f"{variant}: no test sample had the required history")
        report = evaluate_forecasts(np.array(kept_truth), np.array(forecasts), quantiles)
        rows.append(_result_row(variant, 0, market_cfg.index_x, report))
        log.info("%s: %d forecasts (%d skipped), AQL %.4f", variant, len(forecasts), skipped, report.aql)
    elif variant in ("vwap15", "last_price"):
        feature_fn = feature_vwap15 if variant == "vwap15" else feature_last_price
        by_delivery = {}
        for t in trades:
            by_delivery.setdefault(t.delivery_start, []).append(t)

        def feature_matrix(group):
            feats, targets = [], []
            for s in group:
                value = feature_fn(by_delivery[s.delivery_start], s.forecast_time)
                if value is None:
                    continue
                feats.append(value)
                targets.append(s.label)
            return np.array(feats), np.array(targets)

        x_train, y_train = feature_matrix(train_raw)
        x_val, y_val = feature_matrix(val_raw)
        x_test, y_test = feature_matrix(test_raw)
        if x_train.size == 0 or x_test.size == 0:
            raise DataError(f"{variant}: feature extraction found no usable samples")
        fscaler = RobustScaler.fit(x_train.reshape(-1, 1))
        lscaler = RobustScaler.fit(y_train.reshape(-1, 1))
        xs = lambda x: fscaler.transform(x.reshape(-1, 1))
        ys = lambda y: lscaler.transform(y.reshape(-1, 1)).reshape(-1)

        lqr_models = lqr_fit(xs(x_train), ys(y_train), quantiles)
        lqr_pred = lscaler.inverse(lqr_predict(lqr_models, xs(x_test)))
        lqr_report = evaluate_forecasts(y_test, lqr_pred, quantiles)

        mlp_cfg = MLPConfig(hidden_size=_get(cfg, "mlp_hidden_size", int, 16),
                            n_layers=_get(cfg, "mlp_n_layers", int, 2),
                            dropout=_get(cfg, "mlp_dropout", float, 0.1),
                            epochs=_get(cfg, "epochs", int, 50),
                            batch_size=_get(cfg, "batch_size", int, 512),
                            lr0=_get(cfg, "lr0", float, 7e-4),
                            seed=seed)
        mlp_model = mlp_fit(xs(x_train), ys(y_train), quantiles, mlp_cfg,
                            val_features=xs(x_val), val_targets=ys(y_val))
        mlp_pred = lscaler.inverse(mlp_model.predict(xs(x_test)))
        mlp_report = evaluate_forecasts(y_test, mlp_pred, quantiles)

        lqr_best = lqr_report.aql <= mlp_report.aql
        rows.append(_result_row(f"{variant}_lqr", 0, market_cfg.index_x, lqr_report,
                                "yes" if lqr_best else "no"))
        rows.append(_result_row(f"{variant}_mlp", 0, market_cfg.index_x, mlp_report,
                                "no" if lqr_best else "yes"))
    else:
        raise UsageError(f"unknown baseline variant {variant!r}; "
                         "known: naive1 naive2 naive3 vwap15 last_price")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "baseline_results.csv"
    _write_results_csv(results_path, rows)
    write_manifest(out, "baseline", args.config, seed,
                   [p for p in [args.data, args.config] if p], [results_path], started)
    return 0


def cmd_ablate(args):
    started = time.time()
    cfg = read_kv_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    variant = args.variant
    if variant not in ABLATION_VARIANTS:
        raise UsageError(f"unknown ablation variant {variant!r}; known: "
                         + " ".join(sorted(ABLATION_VARIANTS)))
    model_config = model_config_from(cfg, seed)
    train_cfg = train_config_from(cfg, seed)
    market_cfg, (train_s, val_s, test_s, feat, lab) = _prepare_training(args, cfg)

    test_batch = None
    if ABLATION_VARIANTS[variant] is None:
        per_tau = _train_singleq_ensemble(model_config, train_cfg, train_s, val_s,
                                          model_config.quantiles)
        test_batch = encode_samples(test_s, per_tau[0][1])
        forecasts = _predict_singleq_ensemble(per_tau, test_batch, lab,
                                              sort_outputs=(variant == "posthoc_sort"))
    else:
        config = replace(model_config, **ABLATION_VARIANTS[variant])
        result = train(config, train_s, val_s, train_cfg)
        test_batch = encode_samples(test_s, config)
        forecasts = _predictions_eur(result.params, config, test_batch, lab)

    y_true = lab.inverse(test_batch.labels).reshape(-1)
    report = evaluate_forecasts(y_true, forecasts, model_config.quantiles)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results_path = out / "ablation_results.csv"
    _write_results_csv(results_path, [_result_row(variant, 0, market_cfg.index_x, report)])
    log.info("ablate %s: AQL %.4f, AQCR %.2f%%", variant, report.aql, report.aqcr)
    write_manifest(out, "ablate", args.config, seed,
                   [p for p in [args.data, args.config] if p], [results_path], started)
    return 0


def cmd_report(args):
    started = time.time()
    rows = []
    for path in args.inputs:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "model" not in reader.fieldnames:
                raise DataError(f"{path}: not a results CSV")
            rows.extend(reader)
    if not rows:
        raise DataError("report: no result rows found")

    grouped: dict[tuple, dict[str, list[float]]] = {}
    metrics = ["aql", "aqcr", "aiw", "rmse", "mae", "r2"]
    for row in rows:
        key = (row["model"], row["index"])
        bucket = grouped.setdefault(key, {m: [] for m in metrics})
        for m in metrics:
            if row.get(m):
                bucket[m].append(float(row[m]))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.csv"
    with open(report_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "index", "n_rows"] + [f"{m}_mean_std" for m in metrics])
        for (model, index), bucket in sorted(grouped.items()):
            n_rows = max(len(v) for v in bucket.values())
            cells = []
            for m in metrics:
                vals = bucket[m]
                if not vals:
                    cells.append("")
                    continue
                mean = float(np.mean(vals))
                std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
                cells.append(f"{mean:.2f} +- {std:.2f}")
            writer.writerow([model, index, n_rows] + cells)
    log.info("report: aggregated %d rows into %s", len(rows), report_path)
    write_manifest(out, "report", None, args.seed, list(args.inputs), [report_path], started)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="orderfusion",
                     description="Intraday price-index forecasting from buy/sell trade sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, checkpoint=False, out=True):
        p.add_argument("--config", default=None, help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--market", choices=["DE", "AT"], default=None)
        p.add_argument("--index", type=int, choices=[1, 2, 3], default=None)
        if data:
            p.add_argument("--data", required=True, help="trade CSV")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
        if out:
            p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("synth", help="generate a synthetic market"))
    common(sub.add_parser("ingest", help="parse trades and report sample counts"), data=True)
    common(sub.add_parser("train", help="train a model"), data=True)
    p = sub.add_parser("gridsearch", help="exhaustive hyperparameter search")
    common(p, data=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=None)
    common(sub.add_parser("predict", help="forecast with a checkpoint"), data=True, checkpoint=True)
    common(sub.add_parser("evaluate", help="metrics for a checkpoint on a test CSV"),
           data=True, checkpoint=True)
    p = sub.add_parser("baseline", help="naive and feature baselines")
    common(p, data=True)
    p.add_argument("--variant", default="naive1")
    p = sub.add_parser("ablate", help="train and evaluate an ablation variant")
    common(p, data=True)
    p.add_argument("--variant", required=True)
    p = sub.add_parser("report", help="aggregate result CSVs into mean +- std rows")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+", help="result CSV files")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "train": cmd_train,
    "gridsearch": cmd_gridsearch,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "baseline": cmd_baseline,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def dispatch(argv) -> int:
    level = os.environ.get("ORDERFUSION_LOG", "info").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DataError, ParseError, NoLabelError, FileNotFoundError) as exc:
        log.error("data error: %s", exc)
        return 2
    except (DivergenceError, FloatingPointError) as exc:
        log.error("numerical failure: %s", exc)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
