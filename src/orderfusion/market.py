"""Trade ingestion, intraday index labels, sample encoding, robust scaling.

The trade CSV contract: header ``delivery_start,side,price,volume,
transaction_time``, ISO-8601 UTC timestamps (``2024-07-23T18:00:00Z``),
side ``+`` (buy) or ``-`` (sell), ``.`` decimal point, UTF-8, LF endings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from enum import Enum

import numpy as np

__all__ = [
    "Side",
    "TradeRecord",
    "MarketConfig",
    "Sample",
    "RobustScaler",
    "IngestReport",
    "ParseError",
    "NoLabelError",
    "parse_trades",
    "write_trades",
    "parse_timestamp",
    "format_timestamp",
    "compute_index_label",
    "build_sample",
    "build_dataset",
    "fit_scaler",
    "apply_scaler",
]

TRADE_HEADER = ["delivery_start", "side", "price", "volume", "transaction_time"]

# gate closure offsets by market area, minutes before delivery
DELTA_C_BY_MARKET = {"DE": 30, "AT": 0}


class ParseError(ValueError):
    """A malformed row in a trade file; message carries the line number."""


class NoLabelError(ValueError):
    """No trade fell inside a delivery's index window."""


class Side(Enum):
    BUY = "+"
    SELL = "-"


@dataclass(frozen=True)
class TradeRecord:
    delivery_start: datetime
    side: Side
    price: float
    volume: float
    transaction_time: datetime


@dataclass(frozen=True)
class MarketConfig:
    """Index choice and market-specific gate closure offset."""

    index_x: int
    delta_c_minutes: int

    def __post_init__(self):
        if self.index_x not in (1, 2, 3):
            raise ValueError(f"index_x must be 1, 2, or 3, got {self.index_x}")
        if self.delta_c_minutes < 0:
            raise ValueError("delta_c_minutes must be non-negative")
        if self.delta_c_minutes >= self.lead_minutes:
            raise ValueError("gate closure offset must be smaller than the lead time")

    @property
    def lead_minutes(self) -> int:
        return 60 * self.index_x

    @classmethod
    def for_market(cls, market: str, index_x: int) -> "MarketConfig":
        try:
            delta_c = DELTA_C_BY_MARKET[market.upper()]
        except KeyError:
            raise ValueError(f"unknown market {market!r}; known: {sorted(DELTA_C_BY_MARKET)}")
        return cls(index_x=index_x, delta_c_minutes=delta_c)


@dataclass
class Sample:
    """One delivery product: per-side (price, volume, minutes-to-delivery)
    rows in ascending transaction-time order, plus the index label."""

    delivery_start: datetime
    buy_matrix: np.ndarray      # (n_buy, 3)
    sell_matrix: np.ndarray     # (n_sell, 3)
    label: float
    forecast_time: datetime


@dataclass
class IngestReport:
    n_trades: int = 0
    n_deliveries: int = 0
    n_samples: int = 0
    n_dropped_empty_window: int = 0
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_trades": self.n_trades,
            "n_deliveries": self.n_deliveries,
            "n_samples": self.n_samples,
            "n_dropped_empty_window": self.n_dropped_empty_window,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# timestamps and file I/O
# ---------------------------------------------------------------------------


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp, accepting the trailing 'Z' form."""
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_trades(path) -> list[TradeRecord]:
    """Read a trade CSV, rejecting malformed rows with their line number."""
    records: list[TradeRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("line 1: empty file, expected header")
        if header != TRADE_HEADER:
            raise ParseError(f"line 1: expected header {','.join(TRADE_HEADER)}, got {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"line {lineno}: expected 5 columns, got {len(row)}")
            try:
                delivery = parse_timestamp(row[0])
                transaction = parse_timestamp(row[4])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad timestamp ({exc})") from exc
            if row[1] not in ("+", "-"):
                raise ParseError(f"line {lineno}: side must be '+' or '-', got {row[1]!r}")
            try:
                price = float(row[2])
                volume = float(row[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad numeric field ({exc})") from exc
            if not math.isfinite(price):
                raise ParseError(f"line {lineno}: price must be finite")
            if not (math.isfinite(volume) and volume > 0):
                raise ParseError(f"line {lineno}: volume must be > 0, got {row[3]}")
            if not transaction < delivery:
                raise ParseError(f"line {lineno}: transaction_time must precede delivery_start")
            records.append(TradeRecord(delivery, Side(row[1]), price, volume, transaction))
    return records


def write_trades(path, records: list[TradeRecord]) -> None:
    """Write trades in the ingest CSV contract; floats round-trip exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRADE_HEADER)
        for r in records:
            writer.writerow([
                format_timestamp(r.delivery_start),
                r.side.value,
                repr(r.price),
                repr(r.volume),
                format_timestamp(r.transaction_time),
            ])


# ---------------------------------------------------------------------------
# labels and samples
# ---------------------------------------------------------------------------


def compute_index_label(trades: list[TradeRecord], delivery: datetime, cfg: MarketConfig) -> float:
    """Volume-weighted average price over the delivery's index window.

    The window runs from the forecast time to delivery minus the gate
    closure offset, inclusive at the start and exclusive at the end. Both
    sides pool into one VWAP. Summation uses ``math.fsum``, so the result
    is independent of trade order.
    """
    start = delivery - timedelta(minutes=cfg.lead_minutes)
    end = delivery - timedelta(minutes=cfg.delta_c_minutes)
    num_terms = []
    den_terms = []
    for t in trades:
        if t.delivery_start == delivery and start <= t.transaction_time < end:
            num_terms.append(t.price * t.volume)
            den_terms.append(t.volume)
    if not den_terms:
        raise NoLabelError(f"no trades in the index window for delivery {format_timestamp(delivery)}")
    return math.fsum(num_terms) / math.fsum(den_terms)


def build_sample(trades: list[TradeRecord], delivery: datetime, cfg: MarketConfig) -> Sample:
    """Assemble one delivery's paired sequences and label.

    Feature rows take every trade strictly before the forecast time, as
    (price, volume, minutes-to-delivery), time-ascending per side.
    """
    forecast_time = delivery - timedelta(minutes=cfg.lead_minutes)
    per_side: dict[Side, list[tuple[datetime, float, float, float]]] = {Side.BUY: [], Side.SELL: []}
    for t in trades:
        if t.delivery_start != delivery or not t.transaction_time < forecast_time:
            continue
        minutes_to_delivery = (delivery - t.transaction_time).total_seconds() / 60.0
        per_side[t.side].append((t.transaction_time, t.price, t.volume, minutes_to_delivery))

    def to_matrix(rows):
        rows.sort(key=lambda r: r[0])
        if not rows:
            return np.zeros((0, 3))
        return np.array([[p, v, m] for _, p, v, m in rows])

    label = compute_index_label(trades, delivery, cfg)
    return Sample(
        delivery_start=delivery,
        buy_matrix=to_matrix(per_side[Side.BUY]),
        sell_matrix=to_matrix(per_side[Side.SELL]),
        label=label,
        forecast_time=forecast_time,
    )


def build_dataset(trades: list[TradeRecord], cfg: MarketConfig) -> tuple[list[Sample], IngestReport]:
    """One sample per distinct delivery time, in ascending ``delivery_start``
    order whatever the order of ``trades``; empty-window deliveries are
    dropped and counted."""
    report = IngestReport(n_trades=len(trades))
    by_delivery: dict[datetime, list[TradeRecord]] = {}
    for t in trades:
        by_delivery.setdefault(t.delivery_start, []).append(t)
    report.n_deliveries = len(by_delivery)
    samples: list[Sample] = []
    for delivery in sorted(by_delivery):
        try:
            samples.append(build_sample(by_delivery[delivery], delivery, cfg))
        except NoLabelError:
            report.n_dropped_empty_window += 1
    report.n_samples = len(samples)
    report.notes.append(
        "feature baselines available: vwap15, last_price; no exhaustive feature set in this build"
    )
    return samples, report


# ---------------------------------------------------------------------------
# robust scaling
# ---------------------------------------------------------------------------


@dataclass
class RobustScaler:
    """Median/IQR column scaler; a zero IQR is coerced to 1."""

    medians: np.ndarray
    iqrs: np.ndarray
    n_fit: int

    @classmethod
    def fit(cls, data: np.ndarray) -> "RobustScaler":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("RobustScaler.fit needs a non-empty 2-D array")
        q25, q50, q75 = np.percentile(data, [25.0, 50.0, 75.0], axis=0)
        iqr = q75 - q25
        iqr = np.where(iqr == 0.0, 1.0, iqr)
        return cls(medians=q50, iqrs=iqr, n_fit=data.shape[0])

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.medians) / self.iqrs

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) * self.iqrs + self.medians

    def to_dict(self) -> dict:
        return {
            "medians": self.medians.tolist(),
            "iqrs": self.iqrs.tolist(),
            "n_fit": self.n_fit,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RobustScaler":
        return cls(np.array(d["medians"], dtype=np.float64),
                   np.array(d["iqrs"], dtype=np.float64), int(d["n_fit"]))


def fit_scaler(train: list[Sample]) -> tuple[RobustScaler, RobustScaler]:
    """Fit the feature scaler on pooled buy+sell rows of the training
    samples and the label scaler on training labels. Never call this on
    validation or test data."""
    if not train:
        raise ValueError("fit_scaler needs a non-empty training set")
    blocks = [m for s in train for m in (s.buy_matrix, s.sell_matrix) if m.shape[0] > 0]
    if not blocks:
        raise ValueError("fit_scaler found no trade rows in the training set")
    features = np.vstack(blocks)
    labels = np.array([[s.label] for s in train])
    return RobustScaler.fit(features), RobustScaler.fit(labels)


def apply_scaler(s: Sample, feature_scaler: RobustScaler, label_scaler: RobustScaler) -> Sample:
    """Return a scaled copy; padding happens later, so every row is real."""
    return replace(
        s,
        buy_matrix=feature_scaler.transform(s.buy_matrix) if s.buy_matrix.size else s.buy_matrix.copy(),
        sell_matrix=feature_scaler.transform(s.sell_matrix) if s.sell_matrix.size else s.sell_matrix.copy(),
        label=float(label_scaler.transform(np.array([[s.label]]))[0, 0]),
    )
