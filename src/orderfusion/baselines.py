"""Reference forecasters: naive rules, 1-D trade features, LQR, and an MLP.

The naive family forecasts from past labels alone, reading only labels
already published at the forecast time, and turns point forecasts
probabilistic by adding hour-of-day residual percentiles fitted on
training data, which makes them fully deterministic. The feature
baselines compress the trade stream into one number (recent VWAP or last
price) and fit per-quantile linear models or a shared multi-quantile MLP.
``naive_baseline`` and ``feature_baseline`` run each family's protocol on
a chronological split and score it on the test samples.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from . import tensor as T
from .evaluation import MetricReport, aql, evaluate_forecasts
from .market import MarketConfig, RobustScaler, Sample, Trades, delivery_slices, window_vwap
from .model import ModelParams, QUANTILES_DEFAULT, _glorot
from .training import DivergenceError, TrainConfig, _fit, aql_loss

__all__ = [
    "NAIVE_VARIANTS",
    "NAIVE_BASELINES",
    "FEATURE_BASELINES",
    "naive_baseline",
    "feature_baseline",
    "naive_point",
    "ResidualQuantiles",
    "naive_probabilistic",
    "feature_vwap15",
    "feature_last_price",
    "lqr_fit",
    "lqr_predict",
    "MLPConfig",
    "MLPModel",
    "mlp_fit",
]

NAIVE_VARIANTS = ("prev_hour", "prev_day_same_hour", "mean3_same_hour")

# Baseline protocols by result-row name: the naive rule each naive
# baseline uses, and the trade features the feature baselines learn from.
NAIVE_BASELINES = {"naive1": "prev_hour", "naive2": "prev_day_same_hour",
                   "naive3": "mean3_same_hour"}
FEATURE_BASELINES = ("vwap15", "last_price")


# ---------------------------------------------------------------------------
# naive forecasts
# ---------------------------------------------------------------------------


class LabelHistory:
    """Sorted delivery -> label lookup."""

    def __init__(self, labels: dict[datetime, float]):
        self._labels = dict(labels)
        self._sorted = sorted(self._labels)

    def get(self, delivery: datetime) -> float | None:
        return self._labels.get(delivery)

    def latest_until(self, delivery: datetime) -> float | None:
        """Label of the latest delivery starting at or before ``delivery``."""
        i = bisect.bisect_right(self._sorted, delivery)
        if i == 0:
            return None
        return self._labels[self._sorted[i - 1]]


def naive_point(history: LabelHistory | dict, delivery: datetime, variant: str,
                market: MarketConfig) -> float | None:
    """Point forecast from the labels published at the target's forecast
    time; None when the history is missing.

    A label is published when its index window closes, delta_c before its
    delivery, and the forecast is made one lead time before the target, so
    only deliveries starting lead - delta_c or more before the target count.

    prev_hour           label of the most recent such delivery
    prev_day_same_hour  label exactly 24 hours earlier
    mean3_same_hour     mean of the labels 24, 48 and 72 hours earlier
    """
    if not isinstance(history, LabelHistory):
        history = LabelHistory(history)
    if variant == "prev_hour":
        lag = timedelta(minutes=market.lead_minutes - market.delta_c_minutes)
        return history.latest_until(delivery - lag)
    if variant == "prev_day_same_hour":
        return history.get(delivery - timedelta(days=1))
    if variant == "mean3_same_hour":
        labels = [history.get(delivery - timedelta(days=d)) for d in (1, 2, 3)]
        if any(v is None for v in labels):
            return None
        return float(np.mean(labels))
    raise ValueError(f"unknown naive variant {variant!r}; known: {NAIVE_VARIANTS}")


@dataclass
class ResidualQuantiles:
    """Per-delivery-hour empirical residual percentiles, monotone in the level."""

    quantiles: tuple
    per_hour: dict[int, np.ndarray] = field(default_factory=dict)

    @classmethod
    def fit(cls, train_labels: dict[datetime, float], variant: str, market: MarketConfig,
            quantiles=QUANTILES_DEFAULT):
        """Residuals of the naive rule on the training period, grouped by
        delivery hour; each group's percentiles use linear interpolation."""
        history = LabelHistory(train_labels)
        grouped: dict[int, list[float]] = {}
        for delivery in sorted(train_labels):
            point = naive_point(history, delivery, variant, market)
            if point is None:
                continue
            grouped.setdefault(delivery.hour, []).append(train_labels[delivery] - point)
        per_hour = {
            hour: np.quantile(np.array(resids), quantiles)
            for hour, resids in grouped.items()
        }
        return cls(quantiles=tuple(quantiles), per_hour=per_hour)


def naive_probabilistic(residuals: ResidualQuantiles, point: float, hour: int) -> np.ndarray:
    """Point forecast plus the hour's residual percentiles, one per level."""
    if hour not in residuals.per_hour:
        raise ValueError(f"no residual percentiles fitted for delivery hour {hour}")
    return point + residuals.per_hour[hour]


# ---------------------------------------------------------------------------
# 1-D trade features
# ---------------------------------------------------------------------------


def feature_vwap15(trades: Trades, forecast_time: datetime) -> float | None:
    """Pooled VWAP over the 15 minutes before the forecast time.

    ``trades`` is one delivery's trades in transaction-time order. Falls
    back to the last traded price when that window is empty; None when the
    delivery has no prior trades at all.
    """
    vwap = window_vwap(trades, forecast_time - timedelta(minutes=15), forecast_time)
    return feature_last_price(trades, forecast_time) if vwap is None else vwap


def feature_last_price(trades: Trades, forecast_time: datetime) -> float | None:
    """Price of the latest trade before the forecast time, the first in
    input order among equal times; None when there is none."""
    n = np.searchsorted(trades.time, Trades.to_us(forecast_time))
    if n == 0:
        return None
    return float(trades.price[np.searchsorted(trades.time, trades.time[n - 1])])


# ---------------------------------------------------------------------------
# linear quantile regression
# ---------------------------------------------------------------------------


def lqr_fit(
    features: np.ndarray,
    targets: np.ndarray,
    quantiles=QUANTILES_DEFAULT,
    iterations: int = 2000,
    lr: float = 1e-2,
) -> dict[float, tuple[np.ndarray, float]]:
    """Independent per-quantile pinball minimization by full-batch
    (sub)gradient descent from zero coefficients.

    Expects standardized features. Independence across levels means the
    fitted quantiles can cross.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    n, d = x.shape
    models: dict[float, tuple[np.ndarray, float]] = {}
    for tau in quantiles:
        w = np.zeros(d)
        b = 0.0
        for _ in range(iterations):
            pred = x @ w + b
            resid = y - pred
            grad_pred = np.where(resid >= 0, -tau, 1.0 - tau) / n
            grad_w = x.T @ grad_pred
            grad_b = grad_pred.sum()
            w = w - lr * grad_w
            b = b - lr * grad_b
            if not (np.isfinite(w).all() and math.isfinite(b)):
                raise DivergenceError(f"LQR diverged for tau={tau}")
        models[tau] = (w, b)
    return models


def lqr_predict(models: dict[float, tuple[np.ndarray, float]], features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    cols = [x @ w + b for tau, (w, b) in sorted(models.items())]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# multi-quantile MLP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MLPConfig:
    hidden_size: int = 16
    n_layers: int = 2
    dropout: float = 0.1

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


_MLP_INIT_STREAM = 505
_MLP_DROP_STREAM = 606


class MLPModel:
    """Feed-forward net with a flat multi-quantile head (no hierarchy, so
    predicted quantiles can cross)."""

    def __init__(self, n_features: int, quantiles: tuple, cfg: MLPConfig, seed: int):
        self.n_features = n_features
        self.quantiles = tuple(quantiles)
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence([seed, _MLP_INIT_STREAM]))
        arrays = {}
        width_in = n_features
        for layer in range(cfg.n_layers):
            arrays[f"layer{layer}.w"] = _glorot(rng, width_in, cfg.hidden_size)
            arrays[f"layer{layer}.b"] = np.zeros((1, cfg.hidden_size))
            width_in = cfg.hidden_size
        arrays["out.w"] = _glorot(rng, width_in, len(self.quantiles))
        arrays["out.b"] = np.zeros((1, len(self.quantiles)))
        self.params = ModelParams(arrays)

    def forward(self, x: np.ndarray, dropout_rng: np.random.Generator | None = None) -> T.Tensor:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, self.n_features)
        h = T.constant(x)
        for layer in range(self.cfg.n_layers):
            h = T.swish(T.matmul(h, self.params[f"layer{layer}.w"].value)
                        + self.params[f"layer{layer}.b"].value)
            if dropout_rng is not None and self.cfg.dropout > 0.0:
                keep = (dropout_rng.random(h.shape) >= self.cfg.dropout) / (1.0 - self.cfg.dropout)
                h = h * T.constant(keep)
        return T.matmul(h, self.params["out.w"].value) + self.params["out.b"].value

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).data.copy()


def mlp_fit(
    features: np.ndarray,
    targets: np.ndarray,
    val_features: np.ndarray,
    val_targets: np.ndarray,
    train_cfg: TrainConfig,
    cfg: MLPConfig = MLPConfig(),
    quantiles=QUANTILES_DEFAULT,
) -> MLPModel:
    """Train the MLP with the forecaster's loop: mean pinball loss, Adam,
    the staircase schedule and the best validation epoch's weights.

    ``train_cfg.seed`` seeds the initial weights too. Dropout masks draw
    from each epoch's generator after its shuffle.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    y_val = np.asarray(val_targets).reshape(-1)
    if x.shape[0] == 0 or y_val.size == 0:
        raise ValueError("train and validation splits must be non-empty")
    model = MLPModel(x.shape[1], quantiles, cfg, train_cfg.seed)

    def batch_loss(rows, rng):
        pred = model.forward(x[rows], dropout_rng=rng)
        return aql_loss(pred, T.constant(y[rows]), model.quantiles)

    def val_aql():
        return aql(y_val, model.predict(val_features), model.quantiles)

    _fit(model.params, x.shape[0], batch_loss, val_aql, train_cfg, _MLP_DROP_STREAM)
    return model


# ---------------------------------------------------------------------------
# evaluation protocols
# ---------------------------------------------------------------------------


def naive_baseline(
    name: str, fit: list[Sample], test: list[Sample], market: MarketConfig,
    quantiles=QUANTILES_DEFAULT,
) -> list[tuple[str, MetricReport, str]]:
    """Score a naive baseline (a key of ``NAIVE_BASELINES``) on ``test``.

    Residual percentiles are fitted on the labels of ``fit`` (training plus
    validation samples); point forecasts read every label of ``market``
    published by the target's forecast time. Test deliveries without the
    rule's history, or whose hour has no fitted residuals, are skipped.
    Returns one ``(name, report, "")`` result row, or no row when every test
    delivery was skipped.
    """
    rule = NAIVE_BASELINES[name]
    residuals = ResidualQuantiles.fit({s.delivery_start: s.label for s in fit}, rule, market,
                                      quantiles)
    history = LabelHistory({s.delivery_start: s.label for s in fit + test})
    truth, forecasts = [], []
    for s in test:
        point = naive_point(history, s.delivery_start, rule, market)
        if point is None or s.delivery_start.hour not in residuals.per_hour:
            continue
        forecasts.append(naive_probabilistic(residuals, point, s.delivery_start.hour))
        truth.append(s.label)
    if not forecasts:
        return []
    return [(name, evaluate_forecasts(np.array(truth), np.array(forecasts), quantiles), "")]


def feature_baseline(
    name: str,
    trades: Trades,
    train: list[Sample],
    val: list[Sample],
    test: list[Sample],
    train_cfg: TrainConfig,
    mlp_cfg: MLPConfig,
    quantiles=QUANTILES_DEFAULT,
) -> list[tuple[str, MetricReport, str]]:
    """Score a feature baseline (one of ``FEATURE_BASELINES``) on ``test``.

    Each sample's feature is computed from its delivery's trades before the
    forecast time; samples without one are dropped. Features and targets are
    robust-scaled on the training split, then LQR and the MLP (trained with
    ``train_cfg``, validated on ``val``) are fitted. Returns the rows
    ``(f"{name}_lqr", report, best)`` and ``(f"{name}_mlp", report, best)``,
    ``best`` being "yes" for the learner with the lower validation AQL in
    EUR/MWh (LQR on a tie) and "no" for the other; no rows when the
    training, validation or test split yields no feature.
    """
    feature_fn = feature_vwap15 if name == "vwap15" else feature_last_price
    deliveries, parts = delivery_slices(trades)

    def feature_matrix(group):
        feats, targets = [], []
        for s in group:
            part = parts[np.searchsorted(deliveries, Trades.to_us(s.delivery_start))]
            value = feature_fn(part, s.forecast_time)
            if value is not None:
                feats.append(value)
                targets.append(s.label)
        return np.array(feats), np.array(targets)

    x_train, y_train = feature_matrix(train)
    x_val, y_val = feature_matrix(val)
    x_test, y_test = feature_matrix(test)
    if x_train.size == 0 or x_val.size == 0 or x_test.size == 0:
        return []
    fscaler = RobustScaler.fit(x_train.reshape(-1, 1))
    lscaler = RobustScaler.fit(y_train.reshape(-1, 1))
    xs = lambda x: fscaler.transform(x.reshape(-1, 1))
    ys = lambda y: lscaler.transform(y.reshape(-1, 1)).reshape(-1)

    lqr_models = lqr_fit(xs(x_train), ys(y_train), quantiles)
    mlp_model = mlp_fit(xs(x_train), ys(y_train), xs(x_val), ys(y_val), train_cfg, mlp_cfg,
                        quantiles)
    lqr_eur = lambda x: lscaler.inverse(lqr_predict(lqr_models, xs(x)))
    mlp_eur = lambda x: lscaler.inverse(mlp_model.predict(xs(x)))
    lqr_best = aql(y_val, lqr_eur(x_val), quantiles) <= aql(y_val, mlp_eur(x_val), quantiles)
    return [(f"{name}_lqr", evaluate_forecasts(y_test, lqr_eur(x_test), quantiles),
             "yes" if lqr_best else "no"),
            (f"{name}_mlp", evaluate_forecasts(y_test, mlp_eur(x_test), quantiles),
             "no" if lqr_best else "yes")]
