"""Synthetic coupled buy/sell trade streams with known generative structure.

Each delivery hour gets a latent mid price: an hour-of-day seasonal level
plus a within-day mean-reverting anchor, a per-delivery idiosyncratic
offset, and a random walk over the trading session with occasional
downward jumps near delivery. Buy trades quote above the mid, sell trades
below, and each side's quote is pulled toward the opposite side's last
trade by the coupling coefficient. Volumes are log-normal, arrivals
Poisson per side.

Labels are always produced by the real index labeler on the generated
trades, so the generator and the ingest pipeline cannot drift apart.
Days are simulated independently from per-day derived seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .market import (
    MarketConfig,
    NoLabelError,
    Trades,
    compute_index_label,
    format_timestamp,
    write_trades,
)

__all__ = [
    "SynthConfig",
    "LabelRow",
    "VolumeRangeError",
    "simulate_delivery",
    "gen_market",
    "write_market",
    "LABELS_HEADER",
]

LABELS_HEADER = "delivery_start,index_x,label"

_DAY_STREAM = 404


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_days: int = 30
    start: datetime = datetime(2024, 1, 1, tzinfo=timezone.utc)
    base_price: float = 80.0
    vol_per_hour: float = 3.0            # session random-walk std over one hour
    vol_hour_amplitude: float = 0.0      # per-delivery-hour modulation of that vol, in [0, 1)
    anchor_vol: float = 7.0              # hour-to-hour anchor innovation std
    anchor_reversion: float = 0.25       # pull toward the seasonal level per hour
    seasonal_amplitude: float = 14.0     # hour-of-day price profile half-range
    offset_sigma: float = 7.0            # per-delivery idiosyncratic level shift
    jump_intensity_per_hour: float = 0.08
    jump_size_mean: float = 6.0
    arrival_rate_per_min: float = 0.25   # per side
    volume_lognorm_mu: float = 0.0
    volume_lognorm_sigma: float = 0.8
    half_spread: float = 1.0
    coupling: float = 0.3
    session_minutes: int = 240

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("anchor_vol", "offset_sigma", "jump_intensity_per_hour", "jump_size_mean"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.session_minutes < 1:
            raise ValueError("session_minutes must be >= 1")
        if self.arrival_rate_per_min <= 0:
            raise ValueError("arrival_rate_per_min must be > 0")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must lie in [0, 1]")
        if not 0.0 <= self.vol_hour_amplitude < 1.0:
            raise ValueError("vol_hour_amplitude must lie in [0, 1)")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        try:       # the first session opens before start; the last delivery is within n_days
            self.start - timedelta(minutes=self.session_minutes)
            self.start + timedelta(days=self.n_days)
        except OverflowError:
            raise ValueError(f"start {self.start.date()}, session_minutes {self.session_minutes} "
                             f"and n_days {self.n_days} leave the years 1 to 9999") from None


class VolumeRangeError(ValueError):
    """A log-normal trade volume past the largest float or rounded to 0,
    where a trade volume must be finite and > 0."""


@dataclass(frozen=True)
class LabelRow:
    delivery_start: datetime
    index_x: int
    label: float


def _seasonal_level(cfg: SynthConfig, hour: int) -> float:
    return cfg.seasonal_amplitude * math.sin(2.0 * math.pi * (hour - 6) / 24.0)


def _hour_vol_scale(cfg: SynthConfig, hour: int) -> float:
    return 1.0 + cfg.vol_hour_amplitude * math.sin(2.0 * math.pi * hour / 24.0)


def _arrivals(rng: np.random.Generator, scale: float, horizon: float) -> np.ndarray:
    """Poisson arrival times before ``horizon``, drawn in batches; at the crossing
    ``rng`` is rewound to take exactly the draws of a ``t += exponential`` loop."""
    n = max(int(1.5 * horizon / scale), 0) + 16
    parts, start = [], 0.0
    while True:
        state = rng.bit_generator.state
        t = np.cumsum(np.concatenate(([start], rng.exponential(scale, size=n))))[1:]
        cross = int(np.searchsorted(t, horizon))    # first t >= horizon; cumsum adds in sequence
        if cross < n:
            rng.bit_generator.state = state
            rng.exponential(scale, size=cross + 1)
            return np.concatenate(parts + [t[:cross]])
        parts.append(t)
        start = float(t[-1])


def _minutes_to_us(minutes: np.ndarray) -> np.ndarray:
    """``timedelta(minutes=m) // timedelta(microseconds=1)``, µs ties to even, for m >= 0."""
    frac, whole = np.modf(minutes)
    return whole.astype(np.int64) * 60_000_000 + np.rint(frac * 60e6).astype(np.int64)


def simulate_delivery(
    cfg: SynthConfig,
    delivery: datetime,
    anchor_level: float,
    rng: np.random.Generator,
    collect_mid: bool = False,
):
    """One delivery hour's trades in transaction-time order; optionally also (side,
    price, mid) rows. Events go in time order, jump before buy before sell. After a
    positive gap an event steps the mid by a normal; a jump then draws its size, a
    trade its noise and log-volume normals, one call per run of events between jumps."""
    per_min_vol = cfg.vol_per_hour / math.sqrt(60.0) * _hour_vol_scale(cfg, delivery.hour)
    scale, horizon = 1.0 / cfg.arrival_rate_per_min, cfg.session_minutes
    buys, sells = _arrivals(rng, scale, horizon), _arrivals(rng, scale, horizon)
    n_jumps = rng.poisson(cfg.jump_intensity_per_hour)
    jumps = rng.uniform(max(0.0, horizon - 60.0), horizon, size=n_jumps)
    t = np.concatenate([buys, sells, jumps])
    side = np.repeat(np.array([1, -1, 0], np.int8), [len(buys), len(sells), n_jumps])
    order = np.lexsort((-side, side != 0, t))   # stable: equal keys keep draw order
    t, side = t[order], side[order]
    dt = np.diff(t, prepend=0.0)
    step, trade = dt > 0, side != 0
    n_normals = step + 2 * trade
    first = np.cumsum(n_normals) - n_normals    # each event's first normal draw
    z, done = np.empty(int(n_normals.sum())), 0
    increments = np.zeros((len(t), 2))          # per event: mid step, then jump
    for j in np.flatnonzero(~trade).tolist():
        end = int(first[j] + n_normals[j])
        z[done:end] = rng.standard_normal(end - done)
        increments[j, 1] = -rng.exponential(cfg.jump_size_mean)
        done = end
    z[done:] = rng.standard_normal(len(z) - done)
    increments[step, 0] = 0.0 + per_min_vol * np.sqrt(dt[step]) * z[first[step]]
    taken = np.column_stack([step, ~trade])
    mid_path = np.cumsum(np.concatenate(([anchor_level], increments[taken])))
    mid = mid_path[np.cumsum(taken.sum(axis=1))[trade]]    # a trade event takes no jump
    side, z_at = side[trade], (first + step)[trade]
    noise = np.abs(0.0 + cfg.half_spread * z[z_at])
    log_volume = cfg.volume_lognorm_mu + cfg.volume_lognorm_sigma * z[z_at + 1]
    prices, last_price = [], {1: None, -1: None}
    for s, quote in zip(side.tolist(), (mid + side * noise).tolist()):
        other = last_price[-s]
        price = quote if other is None else quote + cfg.coupling * (other - quote)
        last_price[s] = price
        prices.append(price)
    time = Trades.to_us(delivery - timedelta(minutes=cfg.session_minutes)) + _minutes_to_us(t[trade])
    try:        # libm exp, as numpy's lognormal
        volume = np.array([math.exp(v) for v in log_volume.tolist()])
    except OverflowError as exc:
        raise VolumeRangeError(f"a trade volume past the largest float ({exc})") from None
    if not volume.all():
        raise VolumeRangeError("a trade volume rounds to 0")
    trades = Trades(np.full(len(side), Trades.to_us(delivery), dtype=np.int64), time, side,
                    np.array(prices, dtype=np.float64), volume)
    return trades, (list(zip(side.tolist(), prices, mid.tolist())) if collect_mid else None)


def gen_market(
    cfg: SynthConfig,
    delta_c_minutes: int = 30,
    indices: tuple = (1, 2, 3),
) -> tuple[Trades, list[LabelRow], int]:
    """Simulate the whole horizon; labels come from the real index labeler.

    Returns (trades, label rows, n_label_windows_skipped). Label rows cover
    every requested index for every delivery whose window holds a trade.
    """
    parts: list[Trades] = []
    labels: list[LabelRow] = []
    skipped = 0
    for day in range(cfg.n_days):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _DAY_STREAM, day]))
        anchor = _seasonal_level(cfg, 0) + rng.normal(0.0, cfg.anchor_vol)
        day_start = cfg.start + timedelta(days=day)
        for hour in range(24):
            level = _seasonal_level(cfg, hour)
            anchor = anchor + cfg.anchor_reversion * (level - anchor) + rng.normal(0.0, cfg.anchor_vol)
            offset = rng.normal(0.0, cfg.offset_sigma)
            delivery = day_start + timedelta(hours=hour)
            day_trades, _ = simulate_delivery(cfg, delivery, cfg.base_price + anchor + offset, rng)
            parts.append(day_trades)
            for x in indices:
                market_cfg = MarketConfig(index_x=x, delta_c_minutes=delta_c_minutes)
                try:
                    label = compute_index_label(day_trades, delivery, market_cfg)
                except NoLabelError:
                    skipped += 1
                    continue
                labels.append(LabelRow(delivery_start=delivery, index_x=x, label=label))
    return Trades.concat(parts), labels, skipped


def write_labels(path, labels: list[LabelRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LABELS_HEADER + "\n")
        for row in labels:
            fh.write(f"{format_timestamp(row.delivery_start)},{row.index_x},{row.label!r}\n")


def write_market(cfg: SynthConfig, out_dir, delta_c_minutes: int = 30) -> tuple[Path, Path, int]:
    """Write trades.csv and labels.csv; returns their paths and skip count."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trades, labels, skipped = gen_market(cfg, delta_c_minutes)
    trades_path = out / "trades.csv"
    labels_path = out / "labels.csv"
    write_trades(trades_path, trades)
    write_labels(labels_path, labels)
    return trades_path, labels_path, skipped
