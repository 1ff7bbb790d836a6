"""Quantile loss, Adam, the epoch loop, rolling folds, and grid search.

Training runs in scaled label space and is deterministic per seed: per-epoch
shuffles come from a generator derived from (seed, stream, epoch), and the
best validation epoch's weights are what the run returns. The forecaster
and the MLP baseline share one epoch loop, ``_fit``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from datetime import datetime

import numpy as np

from . import tensor as T
from .evaluation import aql
from .market import Sample
from .model import (COMPUTE_DTYPE, ModelConfig, ModelParams, encode_samples, init_params,
                    predict_batch, score_batch, slice_rows)

__all__ = [
    "TrainConfig",
    "FoldSpec",
    "RollingSpec",
    "OptimizerState",
    "DivergenceError",
    "pinball",
    "aql_loss",
    "adam_step",
    "lr_at",
    "train",
    "TrainResult",
    "rolling_folds",
    "add_months",
    "grid_search",
]

_SHUFFLE_STREAM = 303

# Adam's moment decays and denominator guard, and the staircase learning-rate
# schedule's step length in epochs.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
DECAY_EVERY_EPOCHS = 10


class DivergenceError(FloatingPointError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 512
    lr0: float = 7e-4
    decay: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for name in ("lr0", "decay"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def pinball(y: float, yhat: float, tau: float) -> float:
    """Asymmetric absolute loss whose minimizer is the tau-quantile."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if y >= yhat:
        return tau * (y - yhat)
    return (1.0 - tau) * (yhat - y)


def aql_loss(pred: T.Tensor, y: T.Tensor, quantiles) -> T.Tensor:
    """Graph-building version of :func:`aql` for training."""
    taus = T.constant(np.asarray(quantiles, dtype=pred.data.dtype).reshape(1, -1))
    diff = y - pred                       # (n, q) via broadcast of (n, 1)
    return T.mean_all(T.maximum(taus * diff, (taus - 1.0) * diff))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam's step count and moments. Each moment is one flat buffer laid out
    as the parameter set's ``data``; ``params.views(state.first)`` gives one
    parameter's span of it by name."""

    first: np.ndarray
    second: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimizerState":
        return cls(np.zeros_like(params.data), np.zeros_like(params.data))


def adam_step(params: ModelParams, state: OptimizerState, lr: float, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update from the gradients currently held.

    It runs once over the flat buffers, in two scratch arrays:
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + ((1 - b2) g) g`` and
    ``p -= (lr m_hat) / (sqrt(v_hat) + eps)``, each product and quotient
    taken in that order. Every step is elementwise, so the result is the
    per-parameter update's, bit for bit."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g, m, v = params.grad, state.first, state.second
    update, scratch = np.multiply(g, 1.0 - b1), np.multiply(g, 1.0 - b2)
    m *= b1
    m += update
    v *= b2
    scratch *= g
    v += scratch
    np.divide(m, 1.0 - b1 ** t, out=update)          # m_hat
    np.divide(v, 1.0 - b2 ** t, out=scratch)         # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPSILON
    update *= lr
    update /= scratch
    params.data -= update


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Staircase exponential decay every ``DECAY_EVERY_EPOCHS`` epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.lr0 * cfg.decay ** (epoch // DECAY_EVERY_EPOCHS)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_aql: float
    val_aql: float
    lr: float


@dataclass
class TrainResult:
    params: ModelParams
    best_epoch: int
    history: list[EpochStats]

    @property
    def best_val_aql(self) -> float:
        return self.history[self.best_epoch].val_aql


def _fit(params: ModelParams, n: int, batch_loss, val_aql, cfg: TrainConfig,
         stream: int, slice_size: int | None = None) -> TrainResult:
    """Minibatch Adam on ``params`` over ``n`` training rows, ending on the
    weights of the best validation epoch. ``batch_loss(rows, rng)`` builds the
    mean loss of those rows, ``rng`` being the epoch's generator after its
    shuffle; ``val_aql()`` scores the current weights on the validation split.
    The last partial batch of each epoch is kept.

    A minibatch of more than ``slice_size`` rows (None: no limit) runs as
    the fewest near-equal row slices of at most that many rows. Each
    slice's loss is weighted by its share of the minibatch's rows and its
    backward adds into the leaf gradients, so Adam steps once per minibatch
    on the gradient of the minibatch's mean loss, up to summation order. A
    minibatch of one slice runs as one pass, with no weighting."""
    state = OptimizerState.for_params(params)
    history: list[EpochStats] = []
    best_epoch, best_data = -1, None
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream, epoch]))
        order = rng.permutation(n)
        lr = lr_at(epoch, cfg)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            params.zero_grad()
            slices = [rows] if slice_size is None else np.array_split(rows, -(-len(rows) // slice_size))
            for part in slices:
                loss = batch_loss(part, rng)
                if len(slices) > 1:
                    loss = loss * (len(part) / len(rows))
                value = loss.item()
                if not math.isfinite(value):
                    raise DivergenceError(
                        f"non-finite training loss at epoch {epoch}, batch starting {start} (lr={lr})")
                T.backward(loss)
                total += value * len(rows)
            adam_step(params, state, lr, cfg)

        val = val_aql()
        if not math.isfinite(val):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochStats(epoch=epoch, train_aql=total / n, val_aql=val, lr=lr))
        if best_epoch < 0 or val < history[best_epoch].val_aql:
            best_epoch, best_data = epoch, params.data.copy()
    params.data[...] = best_data
    return TrainResult(params=params, best_epoch=best_epoch, history=history)


def train(
    model_config: ModelConfig,
    train_samples: list[Sample],
    val_samples: list[Sample],
    cfg: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Fit the model, returning the weights of the best validation epoch.

    Takes scaled samples and encodes them here. The encoded arrays and the
    initial weights are cast to ``COMPUTE_DTYPE`` once, so the weights,
    gradients and Adam's moments stay in it throughout.
    """
    tb = encode_samples(train_samples, model_config).astype(COMPUTE_DTYPE)
    vb = encode_samples(val_samples, model_config).astype(COMPUTE_DTYPE)
    if len(tb) == 0 or len(vb) == 0:
        raise ValueError("train and validation splits must be non-empty")
    params = init_params(model_config).astype(COMPUTE_DTYPE)
    quantiles = model_config.head_quantiles

    def batch_loss(rows, rng):
        pred = predict_batch(params, model_config, tb.buy[rows], tb.sell[rows],
                             tb.mask_buy[rows], tb.mask_sell[rows])
        return aql_loss(pred, T.constant(tb.labels[rows]), quantiles)

    def val_aql():
        return aql(vb.labels, score_batch(params, model_config, vb), quantiles)

    return _fit(params, len(tb), batch_loss, val_aql, cfg, _SHUFFLE_STREAM,
                slice_rows(model_config))


# ---------------------------------------------------------------------------
# rolling folds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldSpec:
    """Half-open [start, end) timestamp ranges, ordered train < val < test."""

    train_range: tuple[datetime, datetime]
    val_range: tuple[datetime, datetime]
    test_range: tuple[datetime, datetime]

    def split(self, samples: list[Sample]):
        def inside(rng):
            return [s for s in samples if rng[0] <= s.delivery_start < rng[1]]

        return inside(self.train_range), inside(self.val_range), inside(self.test_range)


@dataclass(frozen=True)
class RollingSpec:
    train_months: int = 20
    val_months: int = 4
    test_months: int = 4
    shift_months: int = 4
    n_folds: int = 3


def add_months(dt: datetime, months: int) -> datetime:
    month_index = dt.year * 12 + (dt.month - 1) + months
    return dt.replace(year=month_index // 12, month=month_index % 12 + 1)


def rolling_folds(start: datetime, spec: RollingSpec = RollingSpec()) -> list[FoldSpec]:
    """Forward-shifting folds on month boundaries.

    With the defaults and a 2022-01-01 start: fold 1 trains on 20 months,
    validates on the next 4, tests on the 4 after that; each further fold
    shifts every boundary 4 months, the last test window ending 2025-01-01.
    """
    folds = []
    for i in range(spec.n_folds):
        t0 = add_months(start, i * spec.shift_months)
        t1 = add_months(t0, spec.train_months)
        t2 = add_months(t1, spec.val_months)
        t3 = add_months(t2, spec.test_months)
        folds.append(FoldSpec(train_range=(t0, t1), val_range=(t1, t2), test_range=(t2, t3)))
    return folds


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


@dataclass
class GridCellResult:
    fold: int
    overrides: dict
    val_aql: float
    best_epoch: int


def _expand_space(space: dict) -> list[dict]:
    keys = sorted(space)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(space[k] for k in keys))]


def _run_cell(args):
    base_config, cfg, fold_idx, overrides, train_samples, val_samples = args
    config = replace(base_config, **overrides)
    result = train(config, train_samples, val_samples, cfg)
    return GridCellResult(fold=fold_idx, overrides=overrides,
                          val_aql=result.best_val_aql, best_epoch=result.best_epoch)


def grid_search(
    base_config: ModelConfig,
    train_cfg: TrainConfig,
    space: dict,
    fold_data: list[tuple[list[Sample], list[Sample]]],
    budget: int | None = None,
    jobs: int = 1,
) -> tuple[dict[int, GridCellResult], list[GridCellResult]]:
    """Evaluate every config combination on every fold by validation loss.

    ``space`` maps ModelConfig field names to candidate value lists. Under
    a ``budget`` smaller than the space, an evenly strided subset of the
    enumerated grid is used (documented, deterministic). Returns the best
    cell per fold and the full result table.
    """
    combos = _expand_space(space)
    if budget is not None and budget < len(combos):
        stride_idx = np.linspace(0, len(combos) - 1, budget).round().astype(int)
        combos = [combos[i] for i in sorted(set(stride_idx.tolist()))]

    tasks = []
    for fold_idx, (train_samples, val_samples) in enumerate(fold_data):
        for overrides in combos:
            tasks.append((base_config, train_cfg, fold_idx, overrides, train_samples, val_samples))

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor    # its import costs every command ~18 ms

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            table = list(pool.map(_run_cell, tasks))
    else:
        table = [_run_cell(t) for t in tasks]

    best: dict[int, GridCellResult] = {}
    for cell in table:
        if cell.fold not in best or cell.val_aql < best[cell.fold].val_aql:
            best[cell.fold] = cell
    return best, table
