"""Probabilistic and pointwise forecast metrics plus the Diebold-Mariano test.

All metrics operate on plain arrays: targets shaped (n,) and quantile
forecasts shaped (n, n_quantiles) with columns ascending in the level.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .market import format_timestamp

__all__ = [
    "MetricReport",
    "aql",
    "aqcr",
    "aiw",
    "symmetric_pairs",
    "pointwise",
    "dm_test",
    "evaluate_forecasts",
    "write_plot_csv",
    "per_sample_aql",
]


def aqcr(forecasts: np.ndarray) -> float:
    """Percentage of crossing violations over all ordered quantile pairs.

    A violation is a lower-level column exceeding a higher-level one;
    the count is averaged over samples and all C(q, 2) pairs, times 100.
    """
    forecasts = np.asarray(forecasts, dtype=np.float64)
    if forecasts.ndim != 2 or forecasts.shape[0] == 0 or forecasts.shape[1] < 2:
        raise ValueError(f"aqcr needs a non-empty (n, q) forecast array with q >= 2, "
                         f"got shape {forecasts.shape}")
    n, q = forecasts.shape
    pairs = list(combinations(range(q), 2))
    crossings = 0
    for lo, hi in pairs:
        crossings += int((forecasts[:, lo] > forecasts[:, hi]).sum())
    return 100.0 * crossings / (n * len(pairs))


def symmetric_pairs(quantiles) -> list[tuple[int, int]]:
    """Index pairs (lo, hi) whose levels sum to 1, lo below hi."""
    q = list(quantiles)
    out = []
    for i, j in combinations(range(len(q)), 2):
        if abs(q[i] + q[j] - 1.0) < 1e-9:
            out.append((i, j))
    return out


def aiw(forecasts: np.ndarray, quantiles) -> float:
    """Mean width of the central intervals over all symmetric level pairs."""
    forecasts = np.asarray(forecasts, dtype=np.float64)
    pairs = symmetric_pairs(quantiles)
    if not pairs:
        raise ValueError(f"no symmetric pairs in quantile set {tuple(quantiles)}")
    widths = [forecasts[:, hi] - forecasts[:, lo] for lo, hi in pairs]
    return float(np.mean(widths))


def pointwise(y: np.ndarray, median_forecast: np.ndarray) -> tuple[float, float, float | None]:
    """(rmse, mae, r2); r2 is None when the targets have zero variance."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat = np.asarray(median_forecast, dtype=np.float64).reshape(-1)
    if y.shape != yhat.shape:
        raise ValueError(f"lengths disagree: {y.shape} vs {yhat.shape}")
    err = y - yhat
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if y.size < 2 or ss_tot == 0.0:
        return rmse, mae, None
    r2 = 1.0 - float(np.sum(err ** 2)) / ss_tot
    return rmse, mae, r2


def _normal_two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def dm_test(loss_a: np.ndarray, loss_b: np.ndarray) -> tuple[float, float]:
    """Diebold-Mariano statistic and two-sided normal p-value.

    The differential is loss_a - loss_b per sample, in delivery order;
    the statistic uses the plain lag-0 sample variance (one-step losses).
    Negative values favor model a. Degenerate cases: identical series give
    (0, 1); a constant non-zero differential gives (+-inf, 0) as a
    dominance sentinel.
    """
    a = np.asarray(loss_a, dtype=np.float64).reshape(-1)
    b = np.asarray(loss_b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("loss series must have equal lengths")
    n = a.size
    if n < 10:
        raise ValueError(f"dm_test needs at least 10 observations, got {n}")
    d = a - b
    mean = float(d.mean())
    var = float(d.var(ddof=1))
    if var == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    stat = mean / math.sqrt(var / n)
    return stat, _normal_two_sided_p(stat)


def _pinball_matrix(y: np.ndarray, forecasts: np.ndarray, quantiles) -> np.ndarray:
    """Pinball loss of every sample at every level, shaped (n, q)."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    forecasts = np.asarray(forecasts, dtype=np.float64)
    if forecasts.ndim == 1:
        forecasts = forecasts.reshape(-1, 1)
    quantiles = np.asarray(quantiles, dtype=np.float64).reshape(1, -1)
    if y.shape[0] == 0:
        raise ValueError("aql needs at least one sample")
    if forecasts.shape != (y.shape[0], quantiles.shape[1]):
        raise ValueError(f"forecast shape {forecasts.shape} does not match "
                         f"{y.shape[0]} samples x {quantiles.shape[1]} quantiles")
    diff = y.reshape(-1, 1) - forecasts
    return np.where(diff >= 0, quantiles * diff, (quantiles - 1.0) * diff)


def aql(y: np.ndarray, forecasts: np.ndarray, quantiles) -> float:
    """Mean pinball loss over samples and quantile levels."""
    return float(_pinball_matrix(y, forecasts, quantiles).mean())


def per_sample_aql(y: np.ndarray, forecasts: np.ndarray, quantiles) -> np.ndarray:
    """Mean pinball loss per sample; the differential series for dm_test."""
    return _pinball_matrix(y, forecasts, quantiles).mean(axis=1)


@dataclass
class MetricReport:
    aql: float
    aqcr: float
    aiw: float
    rmse: float
    mae: float
    r2: float | None
    n_samples: int
    quantiles: tuple
    symmetric_pair_levels: tuple

    def to_dict(self) -> dict:
        return {
            "aql": self.aql,
            "aqcr": self.aqcr,
            "aiw": self.aiw,
            "rmse": self.rmse,
            "mae": self.mae,
            "r2": self.r2,
            "n_samples": self.n_samples,
            "quantiles": list(self.quantiles),
            "symmetric_pairs": [list(p) for p in self.symmetric_pair_levels],
        }


def evaluate_forecasts(y: np.ndarray, forecasts: np.ndarray, quantiles) -> MetricReport:
    """All report metrics at once; the median column feeds the pointwise ones."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    forecasts = np.asarray(forecasts, dtype=np.float64)
    q = tuple(quantiles)
    median_idx = q.index(0.50)
    rmse, mae, r2 = pointwise(y, forecasts[:, median_idx])
    pair_levels = tuple((q[lo], q[hi]) for lo, hi in symmetric_pairs(q))
    return MetricReport(
        aql=aql(y, forecasts, q),
        aqcr=aqcr(forecasts),
        aiw=aiw(forecasts, q),
        rmse=rmse,
        mae=mae,
        r2=r2,
        n_samples=int(y.size),
        quantiles=q,
        symmetric_pair_levels=pair_levels,
    )


def write_plot_csv(path, delivery_starts, y: np.ndarray, forecasts: np.ndarray, quantiles) -> None:
    """Per-sample truth and quantile columns for external plotting."""
    q_names = [f"q{int(round(tau * 100)):02d}" for tau in quantiles]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["delivery_start", "y_true"] + q_names)
        for i, ts in enumerate(delivery_starts):
            writer.writerow([format_timestamp(ts), repr(float(y[i]))]
                            + [repr(float(v)) for v in forecasts[i]])
