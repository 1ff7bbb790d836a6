"""Quantile loss, Adam, the epoch loop, rolling folds, and grid search.

Training runs in scaled label space and is deterministic per seed: per-epoch
shuffles come from a generator derived from (seed, stream, epoch), and the
best validation epoch's weights are what the run returns. The forecaster
and the MLP baseline share one epoch loop, ``_fit``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from datetime import datetime

import numpy as np

from . import tensor as T
from .evaluation import aql
from .market import Sample
from .model import ModelConfig, ModelParams, encode_samples, init_params, predict_batch, score_batch

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


class DivergenceError(RuntimeError):
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
    taus = T.constant(np.asarray(quantiles, dtype=np.float64).reshape(1, -1))
    diff = y - pred                       # (n, q) via broadcast of (n, 1)
    return T.mean_all(T.maximum(taus * diff, (taus - 1.0) * diff))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptimizerState":
        return cls(
            first_moment={p.name: np.zeros_like(p.value.data) for p in params},
            second_moment={p.name: np.zeros_like(p.value.data) for p in params},
            step=0,
        )


def adam_step(params: ModelParams, state: OptimizerState, lr: float, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update from the gradients currently held."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p in params:
        g = p.value.grad
        m = state.first_moment[p.name]
        v = state.second_moment[p.name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.value.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


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
         stream: int) -> TrainResult:
    """Minibatch Adam on ``params`` over ``n`` training rows, ending on the
    weights of the best validation epoch. ``batch_loss(rows, rng)`` builds the
    mean loss of those rows, ``rng`` being the epoch's generator after its
    shuffle; ``val_aql()`` scores the current weights on the validation split.
    The last partial batch of each epoch is kept."""
    state = OptimizerState.for_params(params)
    history: list[EpochStats] = []
    best_epoch, best_arrays = -1, None
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream, epoch]))
        order = rng.permutation(n)
        lr = lr_at(epoch, cfg)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            params.zero_grad()
            # The previous step's graph lives until this assignment, on
            # purpose. Dropping it right after backward lowers the train_wide
            # peak RSS 193 -> 177 MB but raises wall time, train_small 1.36 ->
            # 1.46 s and train_wide 1.73 -> 1.86 s (2 vCPUs, medians of 8 and
            # 6 runs): glibc trims the freed top of the heap and the next step
            # faults it back in (minor faults per train_small command 32k ->
            # 104k).
            loss = batch_loss(rows, rng)
            value = loss.item()
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch starting {start} (lr={lr})")
            T.backward(loss)
            adam_step(params, state, lr, cfg)
            total += value * len(rows)

        val = val_aql()
        if not math.isfinite(val):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochStats(epoch=epoch, train_aql=total / n, val_aql=val, lr=lr))
        if best_epoch < 0 or val < history[best_epoch].val_aql:
            best_epoch, best_arrays = epoch, params.state_arrays()
    params.load_arrays(best_arrays)
    return TrainResult(params=params, best_epoch=best_epoch, history=history)


def train(
    model_config: ModelConfig,
    train_samples: list[Sample],
    val_samples: list[Sample],
    cfg: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Fit the model, returning the weights of the best validation epoch.

    Takes scaled samples and encodes them here.
    """
    tb = encode_samples(train_samples, model_config)
    vb = encode_samples(val_samples, model_config)
    if len(tb) == 0 or len(vb) == 0:
        raise ValueError("train and validation splits must be non-empty")
    params = init_params(model_config)
    quantiles = model_config.head_quantiles

    def batch_loss(rows, rng):
        pred = predict_batch(params, model_config, tb.buy[rows], tb.sell[rows],
                             tb.mask_buy[rows], tb.mask_sell[rows])
        return aql_loss(pred, T.constant(tb.labels[rows]), quantiles)

    def val_aql():
        return aql(vb.labels, score_batch(params, model_config, vb), quantiles)

    return _fit(params, len(tb), batch_loss, val_aql, cfg, _SHUFFLE_STREAM)


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
