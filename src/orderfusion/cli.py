"""Command-line operator surface.

Subcommands: synth, ingest, train, gridsearch, predict, evaluate,
baseline, ablate, report. ``dispatch`` resolves what every run shares (the
config file, the seed, the output directory) and, once a command has
succeeded, writes exactly one manifest.json into the output directory with
the hash of every file the command read, so runs are auditable and
reproducible. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure. ORDERFUSION_LOG (error|info|debug) controls logging;
any other value is a usage error.
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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import MLPConfig, FEATURE_BASELINES, NAIVE_BASELINES, feature_baseline, naive_baseline
from .evaluation import evaluate_forecasts, write_metric_report, write_plot_csv
from .market import (
    MarketConfig,
    NoLabelError,
    ParseError,
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
    save_checkpoint,
    score_batch,
)
from .synth import SynthConfig, write_market
from .training import DivergenceError, TrainConfig, grid_search, train

log = logging.getLogger("orderfusion")

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

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


_BOOLS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}


def _bool(text: str) -> bool:
    if text.lower() not in _BOOLS:
        raise ValueError("expected one of " + " ".join(_BOOLS))
    return _BOOLS[text.lower()]


# The cast of a config value, by the annotation of the dataclass field it
# sets; a field whose annotation is not here (``quantiles``) is no key.
_CASTS = {"int": int, "float": float, "str": str, "bool": _bool, "datetime": parse_timestamp}

# Each dataclass a config builds, with the prefix of its keys.
_SECTIONS = ((ModelConfig, ""), (TrainConfig, ""), (SynthConfig, ""), (MLPConfig, "mlp_"))

# Every key a config file may hold, whichever command reads it: one file
# can serve train, ingest and baseline alike.
CONFIG_KEYS = frozenset(
    {prefix + f.name for cls, prefix in _SECTIONS for f in fields(cls) if f.type in _CASTS}
    | {"seed", "market", "index", "train_frac", "val_frac", "train_end", "val_end",
       "grid_hidden_dim", "grid_cutoff_exponent", "grid_interaction_degree"})


def read_kv_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in out:
                raise DataError(f"{path}:{lineno}: config key {key!r} given twice")
            out[key] = value
    return out


def _get(cfg: dict, key: str, cast, default=None):
    """``cast`` of the config value of ``key``, or ``default`` without one;
    a value the cast rejects is a data error that names the key."""
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise DataError(f"config key {key}={cfg[key]!r}: {exc}") from exc


def _config(cls, cfg: dict, prefix: str = "", **given):
    """``cls`` built from the config keys ``prefix`` + field name, each cast
    by its field's annotation, and from ``given``, which wins; a field with
    neither keeps the dataclass default. A value ``cls`` rejects is a data
    error, with the message that names its field."""
    for f in fields(cls):
        if f.name not in given and prefix + f.name in cfg and f.type in _CASTS:
            given[f.name] = _get(cfg, prefix + f.name, _CASTS[f.type])
    try:
        return cls(**given)
    except ValueError as exc:
        raise DataError(f"bad config value: {prefix}{exc}") from exc


# ---------------------------------------------------------------------------
# run context and manifest
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What ``dispatch`` resolves once for every command: the parsed flags,
    the ``--config`` keys (empty without one), the seed (``--seed``, else
    the config's ``seed``, else 0) and the output directory, already made."""

    args: argparse.Namespace
    cfg: dict
    seed: int
    out: Path


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
    return _write_json(out_dir / "manifest.json", manifest)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# shared pipeline steps
# ---------------------------------------------------------------------------


def _market_config(args, cfg: dict) -> MarketConfig:
    market = args.market or cfg.get("market", "DE")
    index = args.index or _get(cfg, "index", int, 1)
    try:
        return MarketConfig.for_market(market, index)
    except ValueError as exc:
        raise DataError(f"bad config value: {exc}") from exc


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
    train_end = _get(cfg, "train_end", parse_timestamp)
    val_end = _get(cfg, "val_end", parse_timestamp)
    if (train_end is None) != (val_end is None):
        raise DataError("config keys train_end and val_end go together: give both or neither")
    if train_end is not None:
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


def _prepare_training(run: Run):
    """The market, the scaled training and validation splits, the raw test
    split and the scalers fitted on the training split."""
    market_cfg = _market_config(run.args, run.cfg)
    _, samples, _ = _load_samples(run.args.data, market_cfg)
    train_raw, val_raw, test_raw = _split_samples(samples, run.cfg)
    feature_scaler, label_scaler = fit_scaler(train_raw)
    scale = lambda group: [apply_scaler(s, feature_scaler, label_scaler) for s in group]
    return market_cfg, scale(train_raw), scale(val_raw), test_raw, feature_scaler, label_scaler


def _predictions_eur(params, config, batch, label_scaler):
    return label_scaler.inverse(score_batch(params, config, batch))


def _result_row(model, fold, index, report, best_of_pair=""):
    return [model, fold, index, f"{report.aql:.6f}", f"{report.aqcr:.6f}", f"{report.aiw:.6f}",
            f"{report.rmse:.6f}", f"{report.mae:.6f}",
            "" if report.r2 is None else f"{report.r2:.6f}", report.n_samples, best_of_pair]


# ---------------------------------------------------------------------------
# subcommands: each takes the Run and returns the paths it wrote
# ---------------------------------------------------------------------------


def cmd_synth(run: Run):
    synth_cfg = _config(SynthConfig, run.cfg, seed=run.seed)
    delta_c = _market_config(run.args, run.cfg).delta_c_minutes
    trades_path, labels_path, skipped = write_market(synth_cfg, run.out, delta_c)
    log.info("synth: wrote %s and %s (%d empty label windows)", trades_path, labels_path, skipped)
    return [trades_path, labels_path]


def cmd_ingest(run: Run):
    market_cfg = _market_config(run.args, run.cfg)
    _, _, report = _load_samples(run.args.data, market_cfg)
    payload = report.to_dict()
    payload["market_delta_c_minutes"] = market_cfg.delta_c_minutes
    payload["index"] = market_cfg.index_x
    return [_write_json(run.out / "ingest_report.json", payload)]


def cmd_train(run: Run):
    model_config = _config(ModelConfig, run.cfg, seed=run.seed)
    train_cfg = _config(TrainConfig, run.cfg, seed=run.seed)
    market_cfg, train_s, val_s, _, feat, lab = _prepare_training(run)

    result = train(model_config, train_s, val_s, train_cfg)
    ckpt_path = run.out / "checkpoint.json"
    save_checkpoint(ckpt_path, model_config, result.params, feat, lab,
                    extra={"best_epoch": result.best_epoch,
                           "market": {"index": market_cfg.index_x,
                                      "delta_c_minutes": market_cfg.delta_c_minutes}})
    log_path = _write_csv(run.out / "training_log.csv", ["epoch", "train_aql", "val_aql", "lr"],
                          [[h.epoch, repr(h.train_aql), repr(h.val_aql), repr(h.lr)]
                           for h in result.history])
    log.info("train: best epoch %d, val AQL %.6f", result.best_epoch, result.best_val_aql)
    return [ckpt_path, log_path]


def cmd_gridsearch(run: Run):
    cfg = run.cfg
    if run.args.budget is not None and run.args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {run.args.budget}")
    base_config = _config(ModelConfig, cfg, seed=run.seed)
    train_cfg = _config(TrainConfig, cfg, seed=run.seed)
    max_alpha = int(math.log2(base_config.t_max))

    def values(field, default):
        """The ``grid_<field>`` candidates, each one checked as that model
        config field; cutoff exponents above log2(t_max) are dropped."""
        def parse(raw):
            out = [int(v) for v in raw.replace(",", " ").split()]
            if field == "cutoff_exponent":
                out = [a for a in out if a <= max_alpha]
            if not out:
                raise ValueError("no candidate value")
            for v in out:
                replace(base_config, **{field: v})
            return out
        return _get(cfg, f"grid_{field}", parse, default)

    space = {
        "hidden_dim": values("hidden_dim", [4, 16, 64, 256, 512]),
        "cutoff_exponent": values("cutoff_exponent", list(range(0, min(max_alpha, 10) + 1))),
        "interaction_degree": values("interaction_degree", [1, 2, 4]),
    }
    _, train_s, val_s, _, _, _ = _prepare_training(run)
    best, table = grid_search(base_config, train_cfg, space, [(train_s, val_s)],
                              budget=run.args.budget, jobs=run.args.jobs)
    keys = sorted(space)
    return [_write_csv(run.out / "gridsearch.csv", ["fold"] + keys + ["val_aql", "best_epoch"],
                       [[cell.fold] + [cell.overrides.get(k, "") for k in keys]
                        + [repr(cell.val_aql), cell.best_epoch] for cell in table]),
            _write_json(run.out / "gridsearch_best.json",
                        {str(fold): {"overrides": cell.overrides, "val_aql": cell.val_aql}
                         for fold, cell in best.items()})]


def _checkpoint_market(run: Run, recorded: dict | None) -> MarketConfig:
    """The market a checkpoint was trained on, as ``train`` records it. A
    checkpoint that records none, or flags that contradict it, are a data
    error."""
    args = run.args
    if recorded is None:
        raise DataError(f"{args.checkpoint}: records no market (extra.market)")
    market_cfg = MarketConfig(index_x=int(recorded["index"]),
                              delta_c_minutes=int(recorded["delta_c_minutes"]))
    if ((args.market and MarketConfig.for_market(args.market, 1).delta_c_minutes
         != market_cfg.delta_c_minutes)
            or (args.index and args.index != market_cfg.index_x)):
        raise DataError(
            f"--market/--index contradict {args.checkpoint}, trained on index "
            f"{market_cfg.index_x} with a {market_cfg.delta_c_minutes}-minute gate closure offset")
    return market_cfg


def _read_checkpoint(run: Run):
    """``load_checkpoint`` of ``--checkpoint``; unreadable is a data error.
    The manifest records the checkpoint's seed, the one the forecasts come
    from."""
    try:
        checkpoint = load_checkpoint(run.args.checkpoint)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{run.args.checkpoint}: unreadable checkpoint: {exc!r}") from exc
    run.seed = checkpoint[0].seed
    return checkpoint


def _score_checkpoint(run: Run, checkpoint):
    """Forecast every delivery in ``--data`` with a read checkpoint."""
    config, params, feat, lab, extra = checkpoint
    _, samples, _ = _load_samples(run.args.data, _checkpoint_market(run, extra.get("market")))
    batch = encode_samples([apply_scaler(s, feat, lab) for s in samples], config)
    y_true = np.array([s.label for s in samples])
    return config, batch, y_true, _predictions_eur(params, config, batch, lab)


def cmd_predict(run: Run):
    config, batch, y_true, forecasts = _score_checkpoint(run, _read_checkpoint(run))
    pred_path = run.out / "predictions.csv"
    write_plot_csv(pred_path, batch.delivery_starts, y_true, forecasts, config.head_quantiles)
    return [pred_path]


def cmd_evaluate(run: Run):
    checkpoint = _read_checkpoint(run)
    if checkpoint[0].head_variant == "single":      # before the parse
        raise DataError(f"{run.args.checkpoint}: head_variant = single forecasts one quantile "
                        "level, and evaluate's AQCR and AIW need the full set; use predict")
    config, batch, y_true, forecasts = _score_checkpoint(run, checkpoint)
    report = evaluate_forecasts(y_true, forecasts, config.head_quantiles)
    report_path = run.out / "metrics.json"
    write_metric_report(report_path, report)
    plot_path = run.out / "predictions.csv"
    write_plot_csv(plot_path, batch.delivery_starts, y_true, forecasts, config.head_quantiles)
    log.info("evaluate: AQL %.4f, AQCR %.2f%%, R2 %s", report.aql, report.aqcr,
             "n/a" if report.r2 is None else f"{report.r2:.4f}")
    return [report_path, plot_path]


def cmd_baseline(run: Run):
    variant, cfg = run.args.variant, run.cfg
    if variant not in NAIVE_BASELINES and variant not in FEATURE_BASELINES:
        raise UsageError(f"unknown baseline variant {variant!r}; known: "
                         + " ".join([*NAIVE_BASELINES, *FEATURE_BASELINES]))
    market_cfg = _market_config(run.args, cfg)
    if variant in FEATURE_BASELINES:    # config errors before the parse
        mlp_cfg = _config(MLPConfig, cfg, "mlp_")
        train_cfg = _config(TrainConfig, cfg, seed=run.seed)
    trades, samples, _ = _load_samples(run.args.data, market_cfg)
    train_raw, val_raw, test_raw = _split_samples(samples, cfg)
    if variant in NAIVE_BASELINES:
        rows = naive_baseline(variant, train_raw + val_raw, test_raw)
    else:
        rows = feature_baseline(variant, trades, train_raw, val_raw, test_raw, train_cfg, mlp_cfg)
    if not rows:
        raise DataError(f"{variant}: the training, validation or test split has no sample "
                        "with the history or trades the baseline needs")
    for model, report, _ in rows:
        log.info("%s: %d of %d test samples forecast, AQL %.4f",
                 model, report.n_samples, len(test_raw), report.aql)
    return [_write_csv(run.out / "baseline_results.csv", RESULTS_HEADER,
                       [_result_row(model, 0, market_cfg.index_x, report, best)
                        for model, report, best in rows])]


def cmd_ablate(run: Run):
    variant = run.args.variant
    if variant not in ABLATION_VARIANTS:
        raise UsageError(f"unknown ablation variant {variant!r}; known: "
                         + " ".join(sorted(ABLATION_VARIANTS)))
    model_config = _config(ModelConfig, run.cfg, seed=run.seed)
    train_cfg = _config(TrainConfig, run.cfg, seed=run.seed)
    market_cfg, train_s, val_s, test_raw, feat, lab = _prepare_training(run)

    overrides = ABLATION_VARIANTS[variant]
    config = replace(model_config, **(overrides or {}))
    test_batch = encode_samples([apply_scaler(s, feat, lab) for s in test_raw], config)
    if overrides is None:
        # one full model per quantile level, trained independently
        cols = []
        for tau in model_config.quantiles:
            single = replace(config, head_variant="single", head_tau=tau)
            params = train(single, train_s, val_s, train_cfg).params
            cols.append(_predictions_eur(params, single, test_batch, lab)[:, 0])
        forecasts = np.column_stack(cols)
        if variant == "posthoc_sort":
            forecasts = np.sort(forecasts, axis=1)
    else:
        result = train(config, train_s, val_s, train_cfg)
        forecasts = _predictions_eur(result.params, config, test_batch, lab)

    y_true = np.array([s.label for s in test_raw])
    report = evaluate_forecasts(y_true, forecasts, model_config.quantiles)
    log.info("ablate %s: AQL %.4f, AQCR %.2f%%", variant, report.aql, report.aqcr)
    return [_write_csv(run.out / "ablation_results.csv", RESULTS_HEADER,
                       [_result_row(variant, 0, market_cfg.index_x, report)])]


def cmd_report(run: Run):
    rows = []
    for path in run.args.inputs:
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

    table = []
    for (model, index), bucket in sorted(grouped.items()):
        cells = []
        for m in metrics:
            vals = bucket[m]
            if not vals:
                cells.append("")
                continue
            mean = float(np.mean(vals))
            std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            cells.append(f"{mean:.2f} +- {std:.2f}")
        table.append([model, index, max(len(v) for v in bucket.values())] + cells)
    report_path = _write_csv(run.out / "report.csv",
                             ["model", "index", "n_rows"] + [f"{m}_mean_std" for m in metrics], table)
    log.info("report: aggregated %d rows into %s", len(rows), report_path)
    return [report_path]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="orderfusion",
                     description="Intraday price-index forecasting from buy/sell trade sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, checkpoint=False):
        p.add_argument("--config", default=None, help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--market", choices=["DE", "AT"], default=None)
        p.add_argument("--index", type=int, choices=[1, 2, 3], default=None)
        if data:
            p.add_argument("--data", required=True, help="trade CSV")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
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
    try:
        level = os.environ.get("ORDERFUSION_LOG", "info")
        if level.lower() not in LOG_LEVELS:
            raise UsageError(f"ORDERFUSION_LOG={level!r}: expected error|info|debug")
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        log.setLevel(LOG_LEVELS[level.lower()])
        args = build_parser().parse_args(argv)
        started = time.time()
        given = vars(args)
        cfg = read_kv_config(given["config"]) if given.get("config") else {}
        seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
        run = Run(args=args, cfg=cfg, seed=seed, out=Path(args.out))
        run.out.mkdir(parents=True, exist_ok=True)
        outputs = _COMMANDS[args.command](run)
        inputs = [given[k] for k in ("data", "config", "checkpoint") if given.get(k)]
        write_manifest(run.out, args.command, given.get("config"), run.seed,
                       inputs + given.get("inputs", []), outputs, started)
        return 0
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
