"""Trade ingestion, intraday index labels, sample encoding, robust scaling.

The trade CSV contract: header ``delivery_start,side,price,volume,
transaction_time``, ISO-8601 UTC timestamps (``2024-07-23T18:00:00Z``),
side ``+`` (buy) or ``-`` (sell), ``.`` decimal point, UTF-8, LF endings.
In memory, trades are one ``Trades`` column table.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone

import numpy as np

__all__ = [
    "Trades", "MarketConfig", "Sample", "RobustScaler", "IngestReport", "ParseError",
    "NoLabelError", "parse_trades", "write_trades", "parse_timestamp", "format_timestamp",
    "delivery_slices", "window_vwap", "compute_index_label",
    "build_sample", "build_dataset", "fit_scaler", "apply_scaler",
]

TRADE_HEADER = ["delivery_start", "side", "price", "volume", "transaction_time"]

# gate closure offsets by market area, minutes before delivery
DELTA_C_BY_MARKET = {"DE": 30, "AT": 0}

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)


class ParseError(ValueError):
    """A malformed row in a trade file; message carries the line number."""


class NoLabelError(ValueError):
    """No trade fell inside a delivery's index window."""


@dataclass(frozen=True, eq=False)
class Trades:
    """Trades as columns, one row per trade. Times are int64 microseconds
    since the Unix epoch (UTC); ``side`` is +1 for a buy, -1 for a sell."""

    delivery: np.ndarray    # int64
    time: np.ndarray        # int64, transaction time
    side: np.ndarray        # int8
    price: np.ndarray       # float64
    volume: np.ndarray      # float64

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, rows) -> "Trades":
        """The rows a slice, boolean mask or index array selects."""
        return Trades(*(getattr(self, f.name)[rows] for f in fields(self)))

    @classmethod
    def concat(cls, parts: list["Trades"]) -> "Trades":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    @staticmethod
    def to_us(dt: datetime) -> int:
        """A timezone-aware datetime in the unit of the time columns."""
        return (dt - _EPOCH) // _US

    @staticmethod
    def from_us(us: int) -> datetime:
        return _EPOCH + int(us) * _US


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
        return asdict(self)


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


def parse_trades(path) -> Trades:
    """Read a trade CSV in file order, rejecting malformed rows with their
    line number."""
    columns = (array("q"), array("q"), array("b"), array("d"), array("d"))
    deliveries, times, sides, prices, volumes = columns
    delivery_us: dict[str, int] = {}    # each distinct delivery text, parsed once
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("line 1: empty file, expected header")
        if header != TRADE_HEADER:
            raise ParseError(f"line 1: expected header {','.join(TRADE_HEADER)}, got {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"line {lineno}: expected 5 columns, got {len(row)}")
            try:
                delivery = delivery_us.get(row[0])
                if delivery is None:
                    delivery = delivery_us[row[0]] = Trades.to_us(parse_timestamp(row[0]))
                transaction = Trades.to_us(parse_timestamp(row[4]))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad timestamp ({exc})") from exc
            if row[1] not in ("+", "-"):
                raise ParseError(f"line {lineno}: side must be '+' or '-', got {row[1]!r}")
            try:
                price, volume = float(row[2]), float(row[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad numeric field ({exc})") from exc
            if not math.isfinite(price):
                raise ParseError(f"line {lineno}: price must be finite")
            if not (math.isfinite(volume) and volume > 0):
                raise ParseError(f"line {lineno}: volume must be > 0, got {row[3]}")
            if not transaction < delivery:
                raise ParseError(f"line {lineno}: transaction_time must precede delivery_start")
            deliveries.append(delivery)
            times.append(transaction)
            sides.append(1 if row[1] == "+" else -1)
            prices.append(price)
            volumes.append(volume)
    return Trades(*(np.array(c) for c in columns))


def _format_times(us: np.ndarray) -> list[str]:
    """``format_timestamp`` of µs times, less the 'Z'; as in ``isoformat``, no zero µs."""
    stamps = us.astype("datetime64[us]")
    whole = us % 1_000_000 == 0
    text = np.datetime_as_string(stamps, unit="us")
    text[whole] = np.datetime_as_string(stamps[whole], unit="s")
    return text.tolist()


def write_trades(path, trades: Trades) -> None:
    """Write trades in the ingest CSV contract; floats round-trip exactly."""
    keys, delivery_index = np.unique(trades.delivery, return_inverse=True)
    delivery_text = [format_timestamp(Trades.from_us(k)) for k in keys.tolist()]
    rows = zip(delivery_index.tolist(), np.where(trades.side > 0, "+", "-").tolist(),
               trades.price.tolist(), trades.volume.tolist(), _format_times(trades.time))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRADE_HEADER) + "\n")
        fh.writelines(f"{delivery_text[i]},{side},{price!r},{volume!r},{time}Z\n"
                      for i, side, price, volume, time in rows)


# ---------------------------------------------------------------------------
# labels and samples
# ---------------------------------------------------------------------------


def delivery_slices(trades: Trades) -> tuple[np.ndarray, list[Trades]]:
    """The distinct delivery times (µs, ascending) and each one's trades in
    transaction-time order, equal times in input order (``lexsort`` is stable)."""
    ordered = trades[np.lexsort((trades.time, trades.delivery))]
    keys, first = np.unique(ordered.delivery, return_index=True)
    edges = np.append(first, len(ordered)).tolist()
    return keys, [ordered[a:b] for a, b in zip(edges, edges[1:])]


def window_vwap(trades: Trades, start: datetime, end: datetime) -> float | None:
    """Pooled volume-weighted average price of the trades with ``start <=
    transaction time < end``, None when there are none. ``trades`` is one
    delivery's trades in transaction-time order, as ``delivery_slices``
    gives them; ``math.fsum`` makes the result independent of their order."""
    lo, hi = np.searchsorted(trades.time, [Trades.to_us(start), Trades.to_us(end)])
    if lo == hi:
        return None
    price, volume = trades.price[lo:hi], trades.volume[lo:hi]
    return math.fsum((price * volume).tolist()) / math.fsum(volume.tolist())


def compute_index_label(trades: Trades, delivery: datetime, cfg: MarketConfig) -> float:
    """VWAP of one delivery's time-ordered trades, both sides pooled, over
    its index window: from the forecast time (inclusive) to delivery minus
    the gate closure offset (exclusive)."""
    label = window_vwap(trades, delivery - timedelta(minutes=cfg.lead_minutes),
                        delivery - timedelta(minutes=cfg.delta_c_minutes))
    if label is None:
        raise NoLabelError(f"no trades in the index window for delivery {format_timestamp(delivery)}")
    return label


def build_sample(trades: Trades, delivery: datetime, cfg: MarketConfig) -> Sample:
    """Assemble one delivery's paired sequences and label from its trades
    in transaction-time order.

    Feature rows take every trade strictly before the forecast time, as
    (price, volume, minutes-to-delivery), per side in that order.
    """
    label = compute_index_label(trades, delivery, cfg)
    forecast_time = delivery - timedelta(minutes=cfg.lead_minutes)
    before = trades[:np.searchsorted(trades.time, Trades.to_us(forecast_time))]
    minutes_to_delivery = (Trades.to_us(delivery) - before.time) / 1e6 / 60.0
    rows = np.column_stack([before.price, before.volume, minutes_to_delivery])
    return Sample(delivery_start=delivery, buy_matrix=rows[before.side > 0],
                  sell_matrix=rows[before.side < 0], label=label, forecast_time=forecast_time)


def build_dataset(trades: Trades, cfg: MarketConfig) -> tuple[list[Sample], IngestReport]:
    """One sample per distinct delivery time, in ascending ``delivery_start``
    order whatever the order of ``trades``; empty-window deliveries are
    dropped and counted."""
    deliveries, parts = delivery_slices(trades)
    report = IngestReport(n_trades=len(trades), n_deliveries=len(deliveries), notes=[
        "feature baselines available: vwap15, last_price; no exhaustive feature set in this build"])
    samples: list[Sample] = []
    for delivery, part in zip(deliveries.tolist(), parts):
        try:
            samples.append(build_sample(part, Trades.from_us(delivery), cfg))
        except NoLabelError:
            report.n_dropped_empty_window += 1
    report.n_samples = len(samples)
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
        return {"medians": self.medians.tolist(), "iqrs": self.iqrs.tolist(), "n_fit": self.n_fit}

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
