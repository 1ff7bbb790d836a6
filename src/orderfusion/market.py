"""Trade ingestion, intraday index labels, sample encoding, robust scaling.

The trade CSV contract: header ``delivery_start,side,price,volume,
transaction_time``, UTC timestamps as ``parse_timestamp`` reads them
(``2024-07-23T18:00:00Z``), side ``+`` (buy) or ``-`` (sell), ``.`` decimal
point, UTF-8, LF endings. In memory, trades are one ``Trades`` column table.
Every text input, config files and results CSVs too, is read through
``open_text`` and ``decoded_lines``: a line that is not UTF-8 is an error.

``parse_trades`` reads a file in blocks of about 256 KiB of lines. One
``np.loadtxt`` call turns a block into columns, and the contract is checked
on whole arrays. Every line of an accepted block is five plain fields as
``write_trades`` writes them, with timestamps ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``.
From the first block with any other line (a blank line, a quote, a NUL, an
offset, another fraction length, a non-ASCII character, any error) to the
end of the file, the per-row parser reads the rows; so does a whole file
whose first line is not exactly the header, such as one with CRLF line ends.
Both paths give the same values, or the same error and line number, on
every file.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from itertools import chain

import numpy as np

__all__ = [
    "Trades", "MarketConfig", "Sample", "RobustScaler", "IngestReport", "ParseError",
    "NoLabelError", "NonFiniteVwapError", "open_text", "decoded_lines", "parse_trades",
    "write_trades", "parse_timestamp", "format_timestamp", "delivery_slices", "window_vwap",
    "compute_index_label", "build_dataset", "fit_scaler", "apply_scaler",
]

TRADE_HEADER = ["delivery_start", "side", "price", "volume", "transaction_time"]

# gate closure offsets by market area, minutes before delivery
DELTA_C_BY_MARKET = {"DE": 30, "AT": 0}

_TIMESTAMP = re.compile(
    r"(\d{4}-\d\d-\d\d[T ]\d\d:\d\d:\d\d)(?:\.(\d{1,6}))?([+-](?:[01]\d|2[0-3]):[0-5]\d)?", re.ASCII)
# What an undecodable byte becomes under errors="surrogateescape".
_UNDECODED = re.compile("[\udc80-\udcff]")
_HEADER_LINE = ",".join(TRADE_HEADER) + "\n"
_BLOCK_CHARS = 1 << 18          # about 3,000 lines per np.loadtxt call, which bounds its memory
# One parsed line of a block. loadtxt cuts a longer string to the field width
# without a word, so a timestamp field holds one byte more than the longest
# accepted shape: a cut string is never of an accepted length.
_ROW = np.dtype([("delivery", "S28"), ("side", "S2"), ("price", "f8"), ("volume", "f8"),
                 ("time", "S28")])
_STAMP_SHAPES = (b"9999-99-99T99:99:99Z", b"9999-99-99T99:99:99.999999Z")
_SHAPE_OF = np.arange(256, dtype=np.uint8)     # a byte's class in a shape: "9" for a digit
_SHAPE_OF[ord("0"):ord("9") + 1] = ord("9")
_YEAR_1 = np.datetime64("0001-01-01", "us")

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)


class ParseError(ValueError):
    """A malformed line of a text input; the message carries its number."""


class NoLabelError(ValueError):
    """No trade fell inside a delivery's index window."""


class NonFiniteVwapError(ValueError):
    """A window's volume-weighted average price is not a finite number: a
    price × volume, or a sum of them or of the volumes, overflows (or, for
    volumes that are not positive, the volume sum is 0)."""


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
    """Parse ``YYYY-MM-DD[T ]HH:MM:SS[.f]`` with 1 to 6 fraction digits and
    a ``Z`` or ``±HH:MM`` offset (hours 00-23, minutes 00-59), surrounding
    whitespace ignored, to UTC.

    The grammar is checked here and not left to ``datetime.fromisoformat``,
    which accepts more from Python 3.11 on (basic format, 7+ fraction digits).
    """
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    match = _TIMESTAMP.fullmatch(raw)
    if match is None:
        raise ValueError(f"Invalid isoformat string: {raw!r}")
    stamp, fraction, offset = match.groups()
    if offset is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    # six fraction digits and ±HH:MM: the form every supported Python reads alike
    return datetime.fromisoformat(f"{stamp}.{fraction or '':0<6}{offset}").astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def open_text(path, newline: str | None = ""):
    """``path`` opened for reading as every text input is: UTF-8, with each
    undecodable byte kept as a lone surrogate for ``decoded_lines`` to find."""
    return open(path, newline=newline, encoding="utf-8", errors="surrogateescape")


def decoded_lines(lines, start: int = 1, where: str = "line "):
    """The lines of an ``open_text`` file, numbered from ``start``, up to
    the first one holding an undecodable byte, which raises the ParseError
    ``{where}{number}: not valid UTF-8``."""
    for lineno, line in enumerate(lines, start=start):
        if not line.isascii() and _UNDECODED.search(line):
            raise ParseError(f"{where}{lineno}: not valid UTF-8")
        yield line


def parse_trades(path) -> Trades:
    """Read a trade CSV in file order, rejecting malformed rows with their
    line number.

    The file is opened once. ``_parse_block`` turns each block of about
    ``_BLOCK_CHARS`` characters of lines into columns. From the first block
    it does not accept, the per-row parser ``_parse_rows`` reads the rest of
    the file, since a quoted field may span lines and line numbers count csv
    records; it reads a whole file whose first line is not exactly the
    header. No block holding an undecodable byte is accepted, so the first
    line that holds one is a ParseError where the per-row parser meets it,
    and a bad row before it is reported first.
    """
    parts = []
    with open_text(path) as fh:
        first = fh.readline()
        lines, start = [first] if first else [], 1
        if first == _HEADER_LINE:
            lines, start = [], 2
            while (lines := fh.readlines(_BLOCK_CHARS)) and (block := _parse_block(lines)) is not None:
                parts.append(block)
                start += len(lines)
        parts.append(_parse_rows(chain(lines, fh), start))
    return Trades.concat(parts)


def _parse_block(lines: list[str]) -> Trades | None:
    """Data lines as whole columns, or None unless every line holds five
    plain fields that ``_parse_rows`` reads to the same values: timestamps
    ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``, side ``+`` or ``-``, finite price,
    finite positive volume, and transaction before delivery. A blank line, a
    quote, a NUL or non-ASCII character, another offset or any error: None."""
    text = "".join(lines)
    # a NUL ends a numpy string early; an undecodable byte is the per-row parser's to report
    if "\0" in text or not text.isascii():
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None, quotechar=None, ndmin=1)
    except ValueError:
        return None
    if len(rows) != len(lines):                 # loadtxt skips blank lines
        return None
    side, price, volume = rows["side"], rows["price"], rows["volume"]
    buy = side == b"+"
    if not ((buy | (side == b"-")).all() and np.isfinite(price).all()
            and (np.isfinite(volume) & (volume > 0)).all()):
        return None
    delivery = rows["delivery"]
    heads = np.flatnonzero(np.r_[True, delivery[1:] != delivery[:-1]])   # runs of one delivery
    delivery, time = _stamps_us(delivery[heads]), _stamps_us(rows["time"].copy())
    if delivery is None or time is None:
        return None
    delivery = np.repeat(delivery, np.diff(np.r_[heads, len(rows)]))
    if not (time < delivery).all():
        return None
    return Trades(delivery, time, np.where(buy, np.int8(1), np.int8(-1)), price.copy(), volume.copy())


def _stamps_us(stamps: np.ndarray) -> np.ndarray | None:
    """µs since the epoch of ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z`` strings (a
    contiguous ``_ROW`` timestamp array, overwritten), or None when one has
    another shape, year 0 or a field out of range."""
    codes = stamps.view(np.uint8).reshape(len(stamps), -1)
    shapes = _SHAPE_OF[codes].view(stamps.dtype).ravel()
    if not ((shapes == _STAMP_SHAPES[0]) | (shapes == _STAMP_SHAPES[1])).all():
        return None
    codes[codes == ord("Z")] = 0      # numpy reads a zone designator with a warning
    try:
        us = stamps.astype("datetime64[us]")
    except ValueError:                # month, day, hour, minute or second out of range
        return None
    return None if (us < _YEAR_1).any() else us.view(np.int64)


def _parse_rows(lines, start: int) -> Trades:
    """Parse the csv records of ``lines`` one by one, numbering them from
    ``start``; record 1 is the header, and an undecodable line an error."""
    columns = (array("q"), array("q"), array("b"), array("d"), array("d"))
    deliveries, times, sides, prices, volumes = columns
    delivery_us: dict[str, int] = {}    # each distinct delivery text, parsed once
    reader = csv.reader(decoded_lines(lines, start))
    if start == 1:
        header = next(reader, None)
        if header is None:
            raise ParseError("line 1: empty file, expected header")
        if header != TRADE_HEADER:
            raise ParseError(f"line 1: expected header {','.join(TRADE_HEADER)}, got {','.join(header)}")
        start = 2
    for lineno, row in enumerate(reader, start=start):
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


def _vwap(price_volume: list, volume: list, delivery_us: int) -> float:
    """``fsum(price_volume) / fsum(volume)``, the one place a window's VWAP is
    computed; ``math.fsum`` makes it independent of the trades' order. A
    result that is not finite (a sum overflows, or is 0) raises
    NonFiniteVwapError naming the delivery."""
    try:
        vwap = math.fsum(price_volume) / math.fsum(volume)
    except (OverflowError, ValueError, ZeroDivisionError):     # overflow, inf - inf, no volume
        vwap = math.nan
    if not math.isfinite(vwap):
        raise NonFiniteVwapError(
            f"delivery {format_timestamp(Trades.from_us(delivery_us))}: the volume-weighted "
            "average price of a window of its trades is not a finite number")
    return vwap


def window_vwap(trades: Trades, start: datetime, end: datetime) -> float | None:
    """Pooled volume-weighted average price of the trades with ``start <=
    transaction time < end``, None when there are none; NonFiniteVwapError
    when it is not finite. ``trades`` is one delivery's trades in
    transaction-time order, as ``delivery_slices`` gives them."""
    lo, hi = np.searchsorted(trades.time, [Trades.to_us(start), Trades.to_us(end)])
    if lo == hi:
        return None
    volume = trades.volume[lo:hi]
    with np.errstate(over="ignore"):        # an overflow is _vwap's to report
        price_volume = trades.price[lo:hi] * volume
    return _vwap(price_volume.tolist(), volume.tolist(), int(trades.delivery[lo]))


def compute_index_label(trades: Trades, delivery: datetime, cfg: MarketConfig) -> float:
    """VWAP of one delivery's time-ordered trades, both sides pooled, over
    its index window: from the forecast time (inclusive) to delivery minus
    the gate closure offset (exclusive)."""
    label = window_vwap(trades, delivery - timedelta(minutes=cfg.lead_minutes),
                        delivery - timedelta(minutes=cfg.delta_c_minutes))
    if label is None:
        raise NoLabelError(f"no trades in the index window for delivery {format_timestamp(delivery)}")
    return label


def build_dataset(trades: Trades, cfg: MarketConfig) -> tuple[list[Sample], IngestReport]:
    """One sample per distinct delivery time, in ascending ``delivery_start``
    order whatever the order of ``trades``; empty-window deliveries are
    dropped and counted.

    A sample's feature rows are its delivery's trades strictly before the
    forecast time, as (price, volume, minutes-to-delivery), per side in
    transaction-time order, equal times in input order. Its label is the
    VWAP of its index window, as ``compute_index_label`` gives it, and one
    that is not finite raises NonFiniteVwapError.

    The table is worked whole: one stable sort by delivery and time, then
    each delivery's forecast cut and window end as counts of its trades
    more than the lead and more than the gate closure offset before
    delivery (``np.add.reduceat`` over delivery segments), and one feature
    table per side. Only the labels' ``math.fsum`` and the ``Sample``
    objects are made per delivery; each sample copies its rows of the
    tables, so that no sample keeps the whole market's features alive.
    """
    report = IngestReport(n_trades=len(trades), notes=[
        "feature baselines available: vwap15, last_price; no exhaustive feature set in this build"])
    if not len(trades):
        return [], report
    order = np.lexsort((trades.time, trades.delivery))
    delivery = trades.delivery[order]
    heads = np.flatnonzero(np.r_[True, delivery[1:] != delivery[:-1]])
    report.n_deliveries = len(heads)
    to_go = delivery - trades.time[order]          # µs before delivery, falling within one
    minute = 60_000_000
    before = to_go > cfg.lead_minutes * minute     # strictly before the forecast time
    in_window = ~before & (to_go > cfg.delta_c_minutes * minute)

    def table(rows: np.ndarray) -> np.ndarray:
        """(price, volume, minutes-to-delivery) of the sorted ``rows``."""
        picked = order[rows]
        out = np.empty((len(rows), 3))
        out[:, 0], out[:, 1] = trades.price[picked], trades.volume[picked]
        out[:, 2] = to_go[rows] / 1e6 / 60.0
        return out

    def bounds(rows: np.ndarray) -> list[int]:
        """Where each delivery's share of the ``rows`` mask starts, and the end."""
        return np.r_[0, np.cumsum(np.add.reduceat(rows, heads, dtype=np.int64))].tolist()

    buy, sell = before & (trades.side[order] > 0), before & (trades.side[order] < 0)
    buy_rows, sell_rows = table(np.flatnonzero(buy)), table(np.flatnonzero(sell))
    window = order[in_window]
    with np.errstate(over="ignore"):        # an overflow is _vwap's to report
        price_volume = (trades.price[window] * trades.volume[window]).tolist()
    volume = trades.volume[window].tolist()

    samples: list[Sample] = []
    lead = timedelta(minutes=cfg.lead_minutes)
    b, s, w = bounds(buy), bounds(sell), bounds(in_window)
    for i, delivery_us in enumerate(delivery[heads].tolist()):
        if w[i] == w[i + 1]:
            report.n_dropped_empty_window += 1
            continue
        label = _vwap(price_volume[w[i]:w[i + 1]], volume[w[i]:w[i + 1]], delivery_us)
        start = Trades.from_us(delivery_us)
        samples.append(Sample(delivery_start=start, buy_matrix=buy_rows[b[i]:b[i + 1]].copy(),
                              sell_matrix=sell_rows[s[i]:s[i + 1]].copy(), label=label,
                              forecast_time=start - lead))
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
        """The scaler ``to_dict`` wrote; a median or IQR that ``fit`` never
        makes (not finite, or an IQR <= 0) is a ValueError."""
        medians = np.array(d["medians"], dtype=np.float64)
        iqrs = np.array(d["iqrs"], dtype=np.float64)
        if not (np.isfinite(medians).all() and np.isfinite(iqrs).all() and (iqrs > 0).all()):
            raise ValueError(f"scaler medians {medians.tolist()} and IQRs {iqrs.tolist()} must "
                             "be finite, and the IQRs > 0")
        return cls(medians, iqrs, int(d["n_fit"]))


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
