"""Command-line operator surface.

Subcommands: synth, ingest, train, gridsearch, predict, evaluate,
baseline, ablate, report. ``dispatch`` resolves what every run shares (the
config file, the seed, the output directory) and, once a command has
succeeded, writes exactly one manifest.json into the output directory with
the hash of every file the command read, the flags it was given and the
environment that sets the bits of float32 results, so runs are auditable
and reproducible. Exit codes: 0 success, 1 usage error, 2 data error,
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
from bisect import bisect_left
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:     # Windows has no getrusage
    resource = None

# The model, training, baseline and synth modules are imported by the
# commands that run them, so that a command compiles no module it does not
# use: ``synth`` imports no model code, and ``train`` no baseline code.
from . import __version__
from .evaluation import evaluate_forecasts, write_plot_csv
from .market import (
    MarketConfig,
    NoLabelError,
    NonFiniteVwapError,
    ParseError,
    apply_scaler,
    build_dataset,
    decoded_lines,
    fit_scaler,
    open_text,
    parse_timestamp,
    parse_trades,
)

log = logging.getLogger("orderfusion")

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

RESULTS_HEADER = ["model", "fold", "index", "aql", "aqcr", "aiw", "rmse", "mae", "r2",
                  "n_samples", "best_of_pair"]

ABLATION_VARIANTS = {
    "dual_mask": {},
    "no_mask": {"mask_variant": "none"},
    "random_mask": {"mask_variant": "random"},
    "reverse_mask": {"mask_variant": "reverse"},
    "no_fusion": {"interaction_degree": 0},
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


# The cast of a config value, by the annotation of the dataclass field it
# sets; a field whose annotation is not here (``quantiles``) is no key.
_CASTS = {"int": int, "float": float, "str": str, "datetime": parse_timestamp}

# Every key a config file may hold, whichever command reads it: one file
# can serve train, ingest and baseline alike. Each key of the first four
# groups names a field of a config dataclass (the MLP's with the prefix
# ``mlp_``) whose annotation ``_CASTS`` holds, as ``tests/test_cli.py``
# checks; they are written out here so that checking a key imports none of
# the dataclasses' modules.
CONFIG_KEYS = frozenset({
    # ModelConfig
    "hidden_dim", "interaction_degree", "cutoff_exponent", "t_max", "mask_variant",
    "aggregation_variant", "pooling_variant", "head_variant", "head_tau",
    # TrainConfig
    "epochs", "batch_size", "lr0", "decay",
    # SynthConfig
    "n_days", "start", "base_price", "vol_per_hour", "vol_hour_amplitude", "anchor_vol",
    "anchor_reversion", "seasonal_amplitude", "offset_sigma", "jump_intensity_per_hour",
    "jump_size_mean", "arrival_rate_per_min", "volume_lognorm_mu", "volume_lognorm_sigma",
    "half_spread", "coupling", "session_minutes",
    # MLPConfig
    "mlp_hidden_size", "mlp_n_layers", "mlp_dropout",
    # run, split and grid; "seed" also sets the seed field of the model,
    # training and synth configs
    "seed", "market", "index", "train_frac", "val_frac", "train_end", "val_end",
    "grid_hidden_dim", "grid_cutoff_exponent", "grid_interaction_degree",
})


class ConfigValueError(DataError):
    """A config value rejected; ``keys`` are the config keys whose values
    took part, which ``dispatch`` cites by ``path:line``."""

    def __init__(self, keys, message):
        super().__init__(message)
        self.keys = list(keys)


def read_kv_config(path) -> tuple[dict[str, str], dict[str, str]]:
    """The values of a config file by key, and the ``path:line`` of each."""
    with open_text(path, newline=None) as fh:       # universal newlines
        lines = list(decoded_lines(fh, where=f"{path}:"))      # before any other error
    out: dict[str, str] = {}
    where: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
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
        where[key] = f"{path}:{lineno}"
    return out, where


def _get(cfg: dict, key: str, cast, default=None):
    """``cast`` of the config value of ``key``, or ``default`` without one;
    a value the cast rejects is a data error that names the key."""
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigValueError([key], f"config key {key}={cfg[key]!r}: {exc}") from exc


def _checked(build, read: dict, prefix: str = ""):
    """``build(**read)``, where ``read`` holds the values of config keys,
    each under the name of the argument it sets (the key without
    ``prefix``). A ValueError from ``build`` is a data error that cites the
    keys it is down to: those ``build`` rejects alone, else those without
    which it passes, else all of them."""
    def rejects(names):
        try:
            build(**{n: read[n] for n in names})
        except ValueError:
            return True
        return False

    try:
        return build(**read)
    except ValueError as exc:
        names = ([n for n in read if rejects([n])]
                 or [n for n in read if not rejects([m for m in read if m != n])] or list(read))
        raise ConfigValueError([prefix + n for n in names],
                               f"bad config value: {prefix}{exc}") from exc


def _config(cls, cfg: dict, prefix: str = ""):
    """``cls`` built from the config keys ``prefix`` + field name, each cast
    by its field's annotation; a field without its key keeps the dataclass
    default. A value ``cls`` rejects is a data error that cites its key, as
    ``_checked`` says."""
    read = {f.name: _get(cfg, prefix + f.name, _CASTS[f.type]) for f in fields(cls)
            if prefix + f.name in cfg and f.type in _CASTS}
    return _checked(cls, read, prefix)


def _seed(raw: str) -> int:
    seed = int(raw)
    if seed < 0:
        raise ValueError("a seed must be >= 0")
    return seed


# ---------------------------------------------------------------------------
# run context and manifest
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What ``dispatch`` resolves once for every command: the parsed flags,
    the ``--config`` keys (empty for a command without one), the seed (the
    config's ``seed``, else 0; ``predict`` and ``evaluate`` set the
    checkpoint's) and the output directory, already made."""

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


def _environment() -> dict:
    """What float32 training and scoring results depend on besides the
    code and the inputs: the interpreter, numpy and its casting rules, the
    BLAS library and its thread counts. The BLAS fields are None on numpy
    before 1.26, which cannot report its build as a dict."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:       # show_config() takes no mode
        deps = {}
    blas = deps.get("blas", {})
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _usage() -> tuple[float | None, int | None]:
    """This process's peak RSS in MB and its minor page faults so far, or
    None for both where ``resource`` is missing."""
    if resource is None:
        return None, None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    per_mb = 2**20 if sys.platform == "darwin" else 2**10      # ru_maxrss: bytes on macOS, else KiB
    return round(usage.ru_maxrss / per_mb, 1), usage.ru_minflt


def write_manifest(out_dir: Path, command: str, config_path, seed, flags: dict, inputs, outputs,
                   started: float):
    """``flags`` are the parsed flags, which the manifest records without
    ``--out``. Inputs and outputs are recorded with their SHA-256, and the
    command's own process with its peak RSS and minor page faults."""
    peak_rss_mb, minor_faults = _usage()
    manifest = {
        "command": command,
        "config_path": str(config_path) if config_path else None,
        "seed": seed,
        "flags": {k: v for k, v in sorted(flags.items()) if k not in ("command", "out")},
        "environment": _environment(),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "wall_clock_seconds": round(time.time() - started, 3),
        "peak_rss_mb": peak_rss_mb,
        "minor_faults": minor_faults,
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


def _market(market: str = "DE", index: int = 1) -> MarketConfig:
    return MarketConfig.for_market(market, index)


def _market_config(cfg: dict, keys=("market", "index")) -> MarketConfig:
    """The market of the config keys ``keys``: ``market`` (else DE) and
    ``index`` (else 1)."""
    casts = {"market": str, "index": int}
    return _checked(_market, {k: _get(cfg, k, casts[k]) for k in keys if k in cfg})


def _load_samples(data_path, market_cfg: MarketConfig):
    trades = parse_trades(data_path)
    samples, report = build_dataset(trades, market_cfg)
    if not samples:
        raise DataError(f"no usable samples in {data_path}")
    log.info("ingested %d trades -> %d samples (%d dropped, empty window)",
             report.n_trades, report.n_samples, report.n_dropped_empty_window)
    return trades, samples, report


def _fractions(train_frac: float = 0.70, val_frac: float = 0.15):
    if not (0.0 < train_frac < 1.0 and 0.0 < val_frac < 1.0 and train_frac + val_frac < 1.0):
        raise ValueError(f"train_frac = {train_frac} and val_frac = {val_frac}: "
                         "each must lie in (0, 1), and their sum below 1")
    return train_frac, val_frac


def _split_samples(samples, cfg: dict):
    """Chronological train/val/test split of ``build_dataset``'s samples
    (one per delivery, in delivery order) at two delivery boundaries: the
    config's ``train_end`` and ``val_end`` when it gives them, else the
    deliveries that start the validation and test fractions."""
    keys = [k for k in ("train_end", "val_end") if k in cfg]
    bounds = [_get(cfg, k, parse_timestamp) for k in keys]
    if len(keys) == 1:
        raise ConfigValueError(keys, "config keys train_end and val_end go together: "
                                     "give both or neither")
    if keys:
        starts = [s.delivery_start for s in samples]
        i, j = (bisect_left(starts, bound) for bound in bounds)
    else:
        keys = [k for k in ("train_frac", "val_frac") if k in cfg]
        train_frac, val_frac = _checked(_fractions, {k: _get(cfg, k, float) for k in keys})
        i, j = int(len(samples) * train_frac), int(len(samples) * (train_frac + val_frac))
    train, val, test = samples[:i], samples[i:j], samples[j:]
    if not train or not val or not test:
        raise ConfigValueError(
            keys, f"degenerate split: {len(train)} train / {len(val)} val / {len(test)} test samples")
    return train, val, test


def _prepare_training(run: Run):
    """The market, the scaled training and validation splits, the raw test
    split and the scalers fitted on the training split."""
    market_cfg = _market_config(run.cfg)
    _, samples, _ = _load_samples(run.args.data, market_cfg)
    train_raw, val_raw, test_raw = _split_samples(samples, run.cfg)
    try:
        feature_scaler, label_scaler = fit_scaler(train_raw)
    except ValueError as exc:       # no trade before any training forecast time
        raise DataError(f"{run.args.data}: {exc}") from exc
    scale = lambda group: [apply_scaler(s, feature_scaler, label_scaler) for s in group]
    return market_cfg, scale(train_raw), scale(val_raw), test_raw, feature_scaler, label_scaler


def _predictions_eur(params, config, batch, label_scaler):
    from .model import score_batch

    return label_scaler.inverse(score_batch(params, config, batch))


def _result_row(model, fold, index, report, best_of_pair=""):
    return [model, fold, index, f"{report.aql:.6f}", f"{report.aqcr:.6f}", f"{report.aiw:.6f}",
            f"{report.rmse:.6f}", f"{report.mae:.6f}",
            "" if report.r2 is None else f"{report.r2:.6f}", report.n_samples, best_of_pair]


# ---------------------------------------------------------------------------
# subcommands: each takes the Run and returns the paths it wrote
# ---------------------------------------------------------------------------


def cmd_synth(run: Run):
    from .synth import SynthConfig, VolumeRangeError, write_market

    synth_cfg = _config(SynthConfig, run.cfg)
    delta_c = _market_config(run.cfg, ("market",)).delta_c_minutes
    try:
        trades_path, labels_path, skipped = write_market(synth_cfg, run.out, delta_c)
    except (VolumeRangeError, NonFiniteVwapError) as exc:
        # a log-normal volume past the float range or rounded to 0, or a
        # label window whose VWAP is not finite
        raise ConfigValueError(["volume_lognorm_mu", "volume_lognorm_sigma"],
                               f"bad config value: volume_lognorm_mu, volume_lognorm_sigma: "
                               f"trade volumes leave the float range ({exc})") from exc
    log.info("synth: wrote %s and %s (%d empty label windows)", trades_path, labels_path, skipped)
    return [trades_path, labels_path]


def cmd_ingest(run: Run):
    market_cfg = _market_config(run.cfg)
    _, _, report = _load_samples(run.args.data, market_cfg)
    payload = report.to_dict()
    payload["market_delta_c_minutes"] = market_cfg.delta_c_minutes
    payload["index"] = market_cfg.index_x
    return [_write_json(run.out / "ingest_report.json", payload)]


def cmd_train(run: Run):
    from .model import ModelConfig, save_checkpoint
    from .training import TrainConfig, train

    model_config = _config(ModelConfig, run.cfg)
    train_cfg = _config(TrainConfig, run.cfg)
    market_cfg, train_s, val_s, _, feat, lab = _prepare_training(run)

    result = train(model_config, train_s, val_s, train_cfg)
    ckpt_path = run.out / "checkpoint.json"
    save_checkpoint(ckpt_path, model_config, result.params, feat, lab, market_cfg,
                    result.best_epoch)
    log_path = _write_csv(run.out / "training_log.csv", ["epoch", "train_aql", "val_aql", "lr"],
                          [[h.epoch, repr(h.train_aql), repr(h.val_aql), repr(h.lr)]
                           for h in result.history])
    log.info("train: best epoch %d, val AQL %.6f", result.best_epoch, result.best_val_aql)
    return [ckpt_path, log_path]


def cmd_gridsearch(run: Run):
    from .model import ModelConfig
    from .training import TrainConfig, grid_search

    cfg = run.cfg
    if run.args.budget is not None and run.args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {run.args.budget}")
    if run.args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {run.args.jobs}")
    base_config = _config(ModelConfig, cfg)
    train_cfg = _config(TrainConfig, cfg)
    max_alpha = int(math.log2(base_config.t_max))

    def values(field, default):
        """The ``grid_<field>`` candidates, each one checked as that model
        config field; cutoff exponents above log2(t_max) are dropped."""
        key = f"grid_{field}"

        def parse(raw):
            out = [int(v) for v in raw.replace(",", " ").split()]
            if not out:
                raise ValueError("no candidate value")
            if field == "cutoff_exponent":
                out = [a for a in out if a <= max_alpha]
                if not out:
                    raise ConfigValueError([k for k in (key, "t_max") if k in cfg],
                                           f"config key {key}={raw!r}: no candidate at or below "
                                           f"log2(t_max) = {max_alpha}")
            for v in out:
                replace(base_config, **{field: v})
            return out
        return _get(cfg, key, parse, default)

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


def _read_checkpoint(run: Run):
    """``load_checkpoint`` of ``--checkpoint``; unreadable is a data error.
    The manifest records the checkpoint's seed, the one the forecasts come
    from."""
    from .model import load_checkpoint

    try:
        checkpoint = load_checkpoint(run.args.checkpoint)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{run.args.checkpoint}: unreadable checkpoint: {exc!r}") from exc
    run.seed = checkpoint[0].seed
    return checkpoint


def _score_checkpoint(run: Run, checkpoint):
    """Forecast every delivery in ``--data`` with a read checkpoint, on the
    market it records."""
    from .model import encode_samples

    config, params, feat, lab, market_cfg = checkpoint
    _, samples, _ = _load_samples(run.args.data, market_cfg)
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
    report_path = _write_json(run.out / "metrics.json", report.to_dict())
    plot_path = run.out / "predictions.csv"
    write_plot_csv(plot_path, batch.delivery_starts, y_true, forecasts, config.head_quantiles)
    log.info("evaluate: AQL %.4f, AQCR %.2f%%, R2 %s", report.aql, report.aqcr,
             "n/a" if report.r2 is None else f"{report.r2:.4f}")
    return [report_path, plot_path]


def cmd_baseline(run: Run):
    from .baselines import FEATURE_BASELINES, NAIVE_BASELINES, MLPConfig, feature_baseline, naive_baseline
    from .training import TrainConfig

    variant, cfg = run.args.variant, run.cfg
    if variant not in NAIVE_BASELINES and variant not in FEATURE_BASELINES:
        raise UsageError(f"unknown baseline variant {variant!r}; known: "
                         + " ".join([*NAIVE_BASELINES, *FEATURE_BASELINES]))
    market_cfg = _market_config(cfg)
    if variant in FEATURE_BASELINES:    # config errors before the parse
        mlp_cfg = _config(MLPConfig, cfg, "mlp_")
        train_cfg = _config(TrainConfig, cfg)
    trades, samples, _ = _load_samples(run.args.data, market_cfg)
    train_raw, val_raw, test_raw = _split_samples(samples, cfg)
    if variant in NAIVE_BASELINES:
        rows = naive_baseline(variant, train_raw + val_raw, test_raw, market_cfg)
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
    from .model import ModelConfig, encode_samples
    from .training import TrainConfig, train

    variant = run.args.variant
    if variant not in ABLATION_VARIANTS:
        raise UsageError(f"unknown ablation variant {variant!r}; known: "
                         + " ".join(sorted(ABLATION_VARIANTS)))
    model_config = _config(ModelConfig, run.cfg)
    train_cfg = _config(TrainConfig, run.cfg)
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


def _result_rows(path, metrics):
    """The (model, index, {metric: value}) of each row of a results CSV. A
    row needs a model, an index and a finite aql; any other metric cell
    may be empty (``_result_row`` leaves an undefined r2 so), else it must
    be a finite number. Anything else, an undecodable line among it, is a
    data error that names ``path:line``."""
    with open_text(path) as fh:
        reader = csv.DictReader(decoded_lines(fh, where=f"{path}:"))
        if reader.fieldnames is None or "model" not in reader.fieldnames:
            raise DataError(f"{path}: not a results CSV")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            for key in ("model", "index", "aql"):
                if not row.get(key):
                    raise DataError(f"{where}: a result row needs {key}")
            values = {}
            for m in metrics:
                if row.get(m):
                    try:
                        values[m] = float(row[m])
                    except ValueError:
                        values[m] = math.nan
                    if not math.isfinite(values[m]):
                        raise DataError(f"{where}: {m} = {row[m]!r} is not a finite number")
            yield row["model"], row["index"], values


def cmd_report(run: Run):
    metrics = ["aql", "aqcr", "aiw", "rmse", "mae", "r2"]
    rows = [row for path in run.args.inputs for row in _result_rows(path, metrics)]
    if not rows:
        raise DataError("report: no result rows found")

    grouped: dict[tuple, dict[str, list[float]]] = {}
    for model, index, values in rows:
        bucket = grouped.setdefault((model, index), {m: [] for m in metrics})
        for m, value in values.items():
            bucket[m].append(value)

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
    flags = {
        "config": dict(default=None, help="key = value configuration file"),
        "data": dict(required=True, help="trade CSV"),
        "checkpoint": dict(required=True),
    }

    def command(name, help, *names):
        """The subparser of ``name``, with the flags ``names`` and ``--out``."""
        p = sub.add_parser(name, help=help)
        for flag in names:
            p.add_argument(f"--{flag}", **flags[flag])
        p.add_argument("--out", required=True, help="output directory")
        return p

    run_flags = ("config", "data")
    command("synth", "generate a synthetic market", "config")
    command("ingest", "parse trades and report sample counts", *run_flags)
    command("train", "train a model", *run_flags)
    p = command("gridsearch", "exhaustive hyperparameter search", *run_flags)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=None)
    command("predict", "forecast with a checkpoint", "checkpoint", "data")
    command("evaluate", "metrics for a checkpoint on a test CSV", "checkpoint", "data")
    p = command("baseline", "naive and feature baselines", *run_flags)
    p.add_argument("--variant", default="naive1")
    p = command("ablate", "train and evaluate an ablation variant", *run_flags)
    p.add_argument("--variant", required=True)
    p = command("report", "aggregate result CSVs into mean +- std rows")
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
    where: dict[str, str] = {}      # config key -> path:line
    try:
        level = os.environ.get("ORDERFUSION_LOG", "info")
        if level.lower() not in LOG_LEVELS:
            raise UsageError(f"ORDERFUSION_LOG={level!r}: expected error|info|debug")
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        log.setLevel(LOG_LEVELS[level.lower()])
        args = build_parser().parse_args(argv)
        started = time.time()
        given = vars(args)
        cfg, where = read_kv_config(given["config"]) if given.get("config") else ({}, {})
        run = Run(args=args, cfg=cfg, seed=_get(cfg, "seed", _seed, 0), out=Path(args.out))
        try:
            run.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:      # a file, or under one
            raise UsageError(f"--out {args.out}: cannot make the output directory: "
                             f"{exc.strerror}") from exc
        outputs = _COMMANDS[args.command](run)
        inputs = [given[k] for k in ("data", "config", "checkpoint") if given.get(k)]
        write_manifest(run.out, args.command, given.get("config"), run.seed, given,
                       inputs + given.get("inputs", []), outputs, started)
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ConfigValueError as exc:
        cited = ", ".join(where[k] for k in where if k in exc.keys)     # in file order
        log.error("data error: %s%s", f"{cited}: " if cited else "", exc)
        return 2
    except (DataError, ParseError, NoLabelError, NonFiniteVwapError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:    # an input path that names no file
        log.error("data error: %s", exc)
        return 2
    except FloatingPointError as exc:      # training's DivergenceError among them
        log.error("numerical failure: %s", exc)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
