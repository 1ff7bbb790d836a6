import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfusion import market
from orderfusion.baselines import feature_last_price
from orderfusion.market import (
    MarketConfig,
    NoLabelError,
    ParseError,
    RobustScaler,
    Trades,
    _format_times,
    apply_scaler,
    build_dataset,
    compute_index_label,
    delivery_slices,
    fit_scaler,
    format_timestamp,
    parse_timestamp,
    parse_trades,
    write_trades,
)

UTC = timezone.utc
DELIVERY = datetime(2024, 7, 23, 18, 0, tzinfo=UTC)


BUY, SELL = 1, -1


def trade(minutes_before_delivery, side=BUY, price=50.0, volume=1.0, delivery=DELIVERY):
    """(delivery, side, price, volume, transaction_time)"""
    return (delivery, side, price, volume, delivery - timedelta(minutes=minutes_before_delivery))


def table(rows):
    """A Trades table of ``trade`` tuples in transaction-time order, equal
    times in list order."""
    rows = sorted(rows, key=lambda r: r[4])
    return Trades(np.array([Trades.to_us(r[0]) for r in rows], dtype=np.int64),
                  np.array([Trades.to_us(r[4]) for r in rows], dtype=np.int64),
                  np.array([r[1] for r in rows], dtype=np.int8),
                  np.array([r[2] for r in rows], dtype=np.float64),
                  np.array([r[3] for r in rows], dtype=np.float64))


def assert_same_table(a, b):
    for name in ("delivery", "time", "side", "price", "volume"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == getattr(b, name).dtype


class TestParse:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "trades.csv"
        path.write_text(
            "delivery_start,side,price,volume,transaction_time\n"
            "2024-07-23T18:00:00Z,+,50.5,2.0,2024-07-23T16:00:00Z\n"
            "2024-07-23T18:00:00Z,-,49.5,1.5,2024-07-23T16:05:00Z\n"
        )
        records = parse_trades(path)
        assert len(records) == 2
        assert records.side[0] == BUY
        assert records.price[1] == 49.5
        assert records.time[0] == Trades.to_us(datetime(2024, 7, 23, 16, 0, tzinfo=UTC))

    def test_zero_volume_names_line(self, tmp_path):
        path = tmp_path / "trades.csv"
        path.write_text(
            "delivery_start,side,price,volume,transaction_time\n"
            "2024-07-23T18:00:00Z,+,50.5,2.0,2024-07-23T16:00:00Z\n"
            "2024-07-23T18:00:00Z,+,50.5,0,2024-07-23T16:00:00Z\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_trades(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "trades.csv"
        path.write_text("delivery_start,side,price,volume\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_trades(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "trades.csv"
        path.write_text(
            "delivery_start,side,price,volume,transaction_time\n"
            "yesterday,+,50.5,2.0,2024-07-23T16:00:00Z\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            parse_trades(path)

    def test_transaction_after_delivery_rejected(self, tmp_path):
        path = tmp_path / "trades.csv"
        path.write_text(
            "delivery_start,side,price,volume,transaction_time\n"
            "2024-07-23T18:00:00Z,+,50.5,2.0,2024-07-23T18:00:00Z\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            parse_trades(path)

    def test_round_trip_10k_rows(self, tmp_path):
        rng = np.random.default_rng(42)
        records = []
        for i in range(10_000):
            delivery = DELIVERY + timedelta(hours=int(rng.integers(0, 48)))
            records.append((
                delivery,
                BUY if rng.random() < 0.5 else SELL,
                float(rng.normal(80, 25)),
                float(rng.lognormal(0.5, 1.0)),
                delivery - timedelta(seconds=float(rng.uniform(60, 7200))),
            ))
        records = table(records)
        path = tmp_path / "trades.csv"
        write_trades(path, records)
        parsed = parse_trades(path)
        assert_same_table(parsed, records)

    def test_column_formatter_matches_format_timestamp(self):
        stamps = [
            datetime(2024, 7, 23, 17, 59, 0, tzinfo=UTC),                 # whole second
            datetime(2024, 7, 23, 17, 59, 0, 1, tzinfo=UTC),              # 1 µs
            datetime(2024, 7, 23, 17, 59, 59, 999_999, tzinfo=UTC),       # 999,999 µs
            datetime(2024, 2, 29, 12, 30, 15, 250_000, tzinfo=UTC),       # leap day
            datetime(2023, 12, 31, 23, 59, 59, 500_000, tzinfo=UTC),      # year boundary
            datetime(2024, 1, 1, tzinfo=UTC),
            datetime(1969, 12, 31, 23, 59, 59, 999_999, tzinfo=UTC),      # pre-1970
            datetime(1969, 12, 31, 23, 59, 58, tzinfo=UTC),
            datetime(1901, 6, 1, 0, 0, 0, 7, tzinfo=UTC),
        ]
        rng = np.random.default_rng(3)
        stamps += [Trades.from_us(us) for us in rng.integers(-10**15, 10**16, size=2000).tolist()]
        stamps += [Trades.from_us(us * 10**6) for us in rng.integers(-10**9, 10**10, size=200).tolist()]
        us = np.array([Trades.to_us(dt) for dt in stamps], dtype=np.int64)
        assert [t + "Z" for t in _format_times(us)] == [format_timestamp(dt) for dt in stamps]


HEADER = "delivery_start,side,price,volume,transaction_time\n"
D, T = "2024-07-23T18:00:00Z", "2024-07-23T16:00:00Z"


def row(delivery=D, side="+", price="50.5", volume="2.0", time=T):
    return f"{delivery},{side},{price},{volume},{time}\n"


def us(*fields):
    """µs since the epoch of a UTC ``datetime(*fields)``."""
    return Trades.to_us(datetime(*fields, tzinfo=UTC))


ROW, BAD = row(), row(volume="0")
GOOD = (us(2024, 7, 23, 18), us(2024, 7, 23, 16), BUY, 50.5, 2.0)


def at_time(*fields):
    """GOOD with its transaction time at ``datetime(2024, 7, 23, *fields)``."""
    return [(GOOD[0], us(2024, 7, 23, *fields), BUY, 50.5, 2.0)]


def with_price(price):
    return [GOOD[:3] + (price, 2.0)]


ZERO_VOLUME = "volume must be > 0, got 0"

# (case, file text or bytes, expected rows as (delivery, time, side, price,
# volume) tuples, or the exact ParseError message)
PARSE_TABLE = [
    # file shape
    ("empty file", "", "line 1: empty file, expected header"),
    ("header only", HEADER, []),
    ("header without newline", HEADER.rstrip("\n"), []),
    ("wrong header", HEADER.replace("delivery_start", "delivery") + ROW,
     "line 1: expected header delivery_start,side,price,volume,transaction_time, "
     "got delivery,side,price,volume,transaction_time"),
    ("undecodable last line", (HEADER + ROW).encode() + b"\xff", "line 3: not valid UTF-8"),
    ("undecodable byte in a field", (HEADER + ROW + row(price="5\udcff0")).encode(
        "utf-8", "surrogateescape"), "line 3: not valid UTF-8"),
    ("bad row before an undecodable line", (HEADER + BAD).encode() + b"\xff\n",
     f"line 2: {ZERO_VOLUME}"),
    ("undecodable header", b"\xff" + HEADER.encode() + ROW.encode(), "line 1: not valid UTF-8"),
    ("utf-8 bom", "\ufeff" + HEADER + ROW,
     "line 1: expected header delivery_start,side,price,volume,transaction_time, "
     "got \ufeffdelivery_start,side,price,volume,transaction_time"),
    ("4 columns", HEADER + ROW + ROW.rsplit(",", 1)[0] + "\n", "line 3: expected 5 columns, got 4"),
    ("6 columns", HEADER + ROW.replace("\n", ",x\n"), "line 2: expected 5 columns, got 6"),
    ("trailing comma", HEADER + ROW.replace("\n", ",\n"), "line 2: expected 5 columns, got 6"),
    # blank lines and line ends
    ("blank first", HEADER + "\n" + ROW, [GOOD]),
    ("blank first then bad", HEADER + "\n" + BAD, f"line 3: {ZERO_VOLUME}"),
    ("blank middle", HEADER + ROW + "\n" + ROW, [GOOD, GOOD]),
    ("blank middle then bad", HEADER + ROW + "\n" + BAD, f"line 4: {ZERO_VOLUME}"),
    ("blank last", HEADER + ROW + "\n\n", [GOOD]),
    ("whitespace line", HEADER + ROW + " \n", "line 3: expected 5 columns, got 1"),
    ("crlf", (HEADER + ROW + ROW).replace("\n", "\r\n"), [GOOD, GOOD]),
    ("crlf then bad", (HEADER + ROW + BAD).replace("\n", "\r\n"), f"line 3: {ZERO_VOLUME}"),
    ("crlf body only", HEADER + (ROW + ROW).replace("\n", "\r\n"), [GOOD, GOOD]),
    ("cr", (HEADER + ROW + BAD).replace("\n", "\r"), f"line 3: {ZERO_VOLUME}"),
    ("no final newline", HEADER + ROW + ROW.rstrip("\n"), [GOOD, GOOD]),
    # quotes and sides
    ("quoted fields", HEADER + ",".join(f'"{f}"' for f in ROW.rstrip("\n").split(",")) + "\n",
     [GOOD]),
    ("quoted newline is one line", HEADER + row(price='"50.5\n"') + BAD, f"line 3: {ZERO_VOLUME}"),
    ("sell", HEADER + row(side="-"), [GOOD[:2] + (SELL, 50.5, 2.0)]),
    ("side +x", HEADER + row(side="+x"), "line 2: side must be '+' or '-', got '+x'"),
    ("side space plus", HEADER + row(side=" +"), "line 2: side must be '+' or '-', got ' +'"),
    ("side empty", HEADER + row(side=""), "line 2: side must be '+' or '-', got ''"),
    ("side nul", HEADER + row(side="+\0"), "line 2: side must be '+' or '-', got '+\\x00'"),
    # numbers
    ("price nan", HEADER + row(price="nan"), "line 2: price must be finite"),
    ("price inf", HEADER + row(price="inf"), "line 2: price must be finite"),
    ("price -0.0", HEADER + row(price="-0.0"), with_price(-0.0)),
    ("price 1e308", HEADER + row(price="1e308"), with_price(1e308)),
    ("price 1e309", HEADER + row(price="1e309"), "line 2: price must be finite"),
    ("price 1_0", HEADER + row(price="1_0"), with_price(10.0)),
    ("price padded", HEADER + row(price=" 50.5 "), [GOOD]),
    ("price word", HEADER + row(price="abc"),
     "line 2: bad numeric field (could not convert string to float: 'abc')"),
    ("price nul", HEADER + row(price="50.5\0"),
     "line 2: bad numeric field (could not convert string to float: '50.5\\x00')"),
    ("volume zero", HEADER + row(volume="0"), f"line 2: {ZERO_VOLUME}"),
    ("volume negative", HEADER + row(volume="-1.5"), "line 2: volume must be > 0, got -1.5"),
    ("volume nan", HEADER + row(volume="nan"), "line 2: volume must be > 0, got nan"),
    ("volume inf", HEADER + row(volume="inf"), "line 2: volume must be > 0, got inf"),
    # timestamps
    ("offset +00:00", HEADER + row(delivery="2024-07-23T18:00:00+00:00"), [GOOD]),
    ("offset +01:00", HEADER + row(delivery="2024-07-23T19:00:00+01:00",
                                   time="2024-07-23T17:00:00+01:00"), [GOOD]),
    ("offset -00:00", HEADER + row(time="2024-07-23T16:00:00-00:00"), [GOOD]),
    ("offset +23:59", HEADER + row(time="2024-07-24T15:59:00+23:59"), [GOOD]),
    ("offset minute 75", HEADER + row(time="2024-07-23T16:00:00+01:75"),
     "line 2: bad timestamp (Invalid isoformat string: '2024-07-23T16:00:00+01:75')"),
    ("offset hour 24", HEADER + row(time="2024-07-23T16:00:00+24:00"),
     "line 2: bad timestamp (Invalid isoformat string: '2024-07-23T16:00:00+24:00')"),
    ("space separator", HEADER + row(time="2024-07-23 16:00:00Z"), [GOOD]),
    ("fraction 1 digit", HEADER + row(time="2024-07-23T16:00:00.5Z"), at_time(16, 0, 0, 500_000)),
    ("fraction 2 digits", HEADER + row(time="2024-07-23T16:00:00.25Z"), at_time(16, 0, 0, 250_000)),
    ("fraction 3 digits", HEADER + row(time="2024-07-23T16:00:00.125Z"), at_time(16, 0, 0, 125_000)),
    ("fraction 4 digits", HEADER + row(time="2024-07-23T16:00:00.1234Z"), at_time(16, 0, 0, 123_400)),
    ("fraction 5 digits", HEADER + row(time="2024-07-23T16:00:00.12345Z"), at_time(16, 0, 0, 123_450)),
    ("fraction 6 digits", HEADER + row(time="2024-07-23T16:00:00.123456Z"),
     at_time(16, 0, 0, 123_456)),
    ("fraction 6 zeros", HEADER + row(time="2024-07-23T16:00:00.000000Z"), [GOOD]),
    ("fraction 7 digits", HEADER + row(time="2024-07-23T16:00:00.1234567Z"),
     "line 2: bad timestamp (Invalid isoformat string: '2024-07-23T16:00:00.1234567+00:00')"),
    ("fraction 8 digits", HEADER + row(time="2024-07-23T16:00:00.12345678Z"),
     "line 2: bad timestamp (Invalid isoformat string: '2024-07-23T16:00:00.12345678+00:00')"),
    ("fraction 9 digits", HEADER + row(time="2024-07-23T16:00:00.123456789Z"),
     "line 2: bad timestamp (Invalid isoformat string: '2024-07-23T16:00:00.123456789+00:00')"),
    ("hour 24", HEADER + row(time="2024-07-23T24:00:00Z"),
     "line 2: bad timestamp (hour must be in 0..23)"),
    ("minute 60", HEADER + row(time="2024-07-23T16:60:00Z"),
     "line 2: bad timestamp (minute must be in 0..59)"),
    ("second 60", HEADER + row(time="2024-07-23T16:00:60Z"),
     "line 2: bad timestamp (second must be in 0..59)"),
    ("feb 29 leap year", HEADER + row(delivery="2024-02-29T18:00:00Z", time="2024-02-29T16:00:00Z"),
     [(us(2024, 2, 29, 18), us(2024, 2, 29, 16), BUY, 50.5, 2.0)]),
    ("feb 29 non-leap year", HEADER + row(delivery="2023-02-29T18:00:00Z"),
     "line 2: bad timestamp (day is out of range for month)"),
    ("april 31", HEADER + row(delivery="2024-04-31T18:00:00Z"),
     "line 2: bad timestamp (day is out of range for month)"),
    ("month 13", HEADER + row(delivery="2024-13-01T18:00:00Z"),
     "line 2: bad timestamp (month must be in 1..12)"),
    ("year 0", HEADER + row(time="0000-07-23T16:00:00Z"),
     "line 2: bad timestamp (year 0 is out of range)"),
    ("pre-1970", HEADER + row(delivery="1969-12-31T23:00:00Z", time="1969-12-31T22:59:59.999999Z"),
     [(us(1969, 12, 31, 23), us(1969, 12, 31, 22, 59, 59, 999_999), BUY, 50.5, 2.0)]),
    ("transaction at delivery", HEADER + row(time=D),
     "line 2: transaction_time must precede delivery_start"),
    ("transaction after delivery", HEADER + row(time="2024-07-23T18:00:00.000001Z"),
     "line 2: transaction_time must precede delivery_start"),
    ("naive timestamp", HEADER + row(time="2024-07-23T16:00:00"),
     "line 2: bad timestamp (timestamp '2024-07-23T16:00:00' lacks a UTC offset)"),
    ("offset in the second field", HEADER + row(time="2024-07-23T16:00+01Z"),
     "line 2: bad timestamp (Invalid isoformat string: '2024-07-23T16:00+01+00:00')"),
    ("word", HEADER + row(delivery="yesterday"),
     "line 2: bad timestamp (Invalid isoformat string: 'yesterday')"),
]


def assert_bitwise(parsed: Trades, rows: list):
    """Columns equal bit for bit (-0.0 is not 0.0) in the Trades dtypes."""
    dtypes = (np.int64, np.int64, np.int8, np.float64, np.float64)
    columns = list(zip(*rows)) or [()] * 5
    for name, dtype, values in zip(("delivery", "time", "side", "price", "volume"), dtypes, columns):
        got = getattr(parsed, name)
        assert got.dtype == dtype, name
        assert got.tobytes() == np.array(values, dtype=dtype).tobytes(), name


@pytest.mark.parametrize("text, expected", [case[1:] for case in PARSE_TABLE],
                         ids=[case[0] for case in PARSE_TABLE])
def test_parse_table(tmp_path, text, expected):
    path = tmp_path / "trades.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(ParseError) as info:
            parse_trades(path)
        assert str(info.value) == expected
    else:
        assert_bitwise(parse_trades(path), expected)


# Rows the block parse leaves to the per-row parser, valid or not, each
# injected into a written market at the first and last line of a block and
# just past a blank line.
EXOTIC_ROWS = [
    "\n",
    " \n",
    ROW.replace("\n", "\r\n"),
    ",".join(f'"{f}"' for f in ROW.rstrip("\n").split(",")) + "\n",
    row(delivery="2024-07-23T19:00:00+01:00"),
    row(time="2024-07-23 16:00:00Z"),
    row(time="2024-07-23T16:00:00.5Z"),
    row(time="2024-07-23T16:00:00.000000Z"),
    row(price=" 50.5 "),
    row(price="1_0"),
    row(volume="0"),
    row(price="nan"),
    row(volume="inf"),
    row(side="x"),
    row(side="+\0"),
    row(price="50.5\0"),
    ROW.rsplit(",", 1)[0] + "\n",
    ROW.replace("\n", ",\n"),
    row(time="2024-07-23T24:00:00Z"),
    row(time="2024-07-23T16:00:60Z"),
    row(delivery="2023-02-29T18:00:00Z"),
    row(time="0000-07-23T16:00:00Z"),
    row(time="+024-07-23T16:00:00Z"),
    row(time="2024-07-23T16:00+01Z"),
    row(time="2024-07-23t16:00:00Z"),
    row(time="2024-07-23T16:00:00.1234567Z"),
    row(time="2024-07-23T16:00:00.123456Zjunk"),
    row(delivery="2024-07-23T18:00:00.000000Z0"),
    row(time="٢٠٢٤-07-23T16:00:00Z"),
    row(time=D),
]


def outcome(parse, path):
    """The columns and dtypes ``parse`` reads from ``path``, or its error."""
    try:
        trades = parse(path)
    except ValueError as exc:           # ParseError is a ValueError
        return type(exc), str(exc)
    return [(getattr(trades, f).dtype, getattr(trades, f).tobytes())
            for f in ("delivery", "time", "side", "price", "volume")]


def per_row(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return market._parse_rows(fh, 1)


def block_sizes(path, hint):
    """Lines per block as ``parse_trades`` reads ``path``, header excluded."""
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        return [len(lines) for lines in iter(lambda: fh.readlines(hint), [])]


class TestBlockParse:
    """``parse_trades`` against the per-row parser it falls back on."""

    @pytest.fixture(scope="class")
    def lines(self, tmp_path_factory):
        """The data lines of a written market of 200 trades, some at whole seconds."""
        rng = np.random.default_rng(8)
        delivery = Trades.to_us(DELIVERY) + 3_600_000_000 * np.sort(rng.integers(0, 6, 200))
        time = delivery - rng.integers(1, 14_400_000_000, 200)
        time[rng.random(200) < 0.3] //= 1_000_000
        time[time < delivery - 14_400_000_000] *= 1_000_000
        trades = Trades(delivery, time, np.where(rng.random(200) < 0.5, 1, -1).astype(np.int8),
                        rng.normal(80, 25, 200), rng.lognormal(0.5, 1.0, 200))
        path = tmp_path_factory.mktemp("block") / "trades.csv"
        write_trades(path, trades)
        return path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]

    def test_clean_market_never_reaches_per_row_parser(self, tmp_path, monkeypatch, lines):
        path = tmp_path / "trades.csv"
        path.write_text(HEADER + "".join(lines), encoding="utf-8")
        expected = outcome(per_row, path)
        records, parse_rows = [], market._parse_rows

        def spy(rows, start):
            records.extend(rows)
            return parse_rows(records, start)

        monkeypatch.setattr(market, "_parse_rows", spy)
        monkeypatch.setattr(market, "_BLOCK_CHARS", 1000)
        assert len(block_sizes(path, 1000)) > 10
        assert outcome(parse_trades, path) == expected
        assert records == []

    def test_undecodable_byte_after_a_bad_row(self, tmp_path):
        """The bad row is reported, as when the file is read row by row: the
        undecodable byte lies past the first 8 KiB the reader decodes, but
        inside the first block."""
        path = tmp_path / "trades.csv"
        path.write_bytes((HEADER + ROW + BAD + ROW * 200).encode() + b"\xff\n")
        with pytest.raises(ParseError, match="^line 3: volume must be > 0, got 0$"):
            parse_trades(path)
        path.write_bytes((HEADER + ROW * 200).encode() + b"\xff\n")
        with pytest.raises(ParseError, match="^line 202: not valid UTF-8$"):
            parse_trades(path)

    def test_undecodable_last_line_is_read_once(self, tmp_path, monkeypatch, lines):
        """Only the block holding the byte is declined: the per-row parser
        starts there, once, and numbers the line as the file does."""
        path = tmp_path / "trades.csv"
        path.write_bytes((HEADER + "".join(lines)).encode() + b"\xff\n")
        with market.open_text(path) as fh:
            fh.readline()
            sizes = [len(block) for block in iter(lambda: fh.readlines(1000), [])]
        starts, parse_rows = [], market._parse_rows

        def spy(rows, start):
            starts.append(start)
            return parse_rows(rows, start)

        monkeypatch.setattr(market, "_parse_rows", spy)
        monkeypatch.setattr(market, "_BLOCK_CHARS", 1000)
        with pytest.raises(ParseError, match=f"^line {len(lines) + 2}: not valid UTF-8$"):
            parse_trades(path)
        assert len(sizes) > 10 and starts == [2 + sum(sizes[:-1])]

    @pytest.mark.parametrize("place", ["first line of the file", "first line of a block",
                                       "last line of a block", "past a blank line"])
    @pytest.mark.parametrize("exotic", EXOTIC_ROWS, ids=repr)
    def test_matches_per_row_parser(self, tmp_path, monkeypatch, lines, exotic, place):
        before = {"first line of the file": 0, "past a blank line": 30}.get(place, 20)
        injected = ["\n", exotic] if place == "past a blank line" else [exotic]
        # a block ends at the first line that takes its length past the hint
        size = sum(map(len, lines[:before]))
        hint = {"first line of a block": size - 1, "last line of a block": size + len(exotic) - 1}.get(
            place, 1000)
        path = tmp_path / "trades.csv"
        path.write_text(HEADER + "".join(lines[:before] + injected + lines[before:]), encoding="utf-8")
        if place == "first line of a block":
            assert block_sizes(path, hint)[0] == before
        if place == "last line of a block":
            assert block_sizes(path, hint)[0] == before + 1
        monkeypatch.setattr(market, "_BLOCK_CHARS", hint)
        assert outcome(parse_trades, path) == outcome(per_row, path)


@pytest.mark.parametrize("text, expected", [
    ("2024-07-23T16:00:00Z", datetime(2024, 7, 23, 16, tzinfo=UTC)),
    ("2024-07-23 16:00:00Z", datetime(2024, 7, 23, 16, tzinfo=UTC)),
    (" 2024-07-23T16:00:00Z\t", datetime(2024, 7, 23, 16, tzinfo=UTC)),
    ("2024-07-23T16:00:00.5Z", datetime(2024, 7, 23, 16, 0, 0, 500_000, tzinfo=UTC)),
    ("2024-07-23T16:00:00.12345Z", datetime(2024, 7, 23, 16, 0, 0, 123_450, tzinfo=UTC)),
    ("2024-07-23T16:00:00.000001+00:00", datetime(2024, 7, 23, 16, 0, 0, 1, tzinfo=UTC)),
    ("2024-07-23T17:00:00+01:00", datetime(2024, 7, 23, 16, tzinfo=UTC)),
    ("2024-07-23T13:30:00.5-02:30", datetime(2024, 7, 23, 16, 0, 0, 500_000, tzinfo=UTC)),
    ("2024-07-24T15:59:00+23:59", datetime(2024, 7, 23, 16, tzinfo=UTC)),
    ("2024-07-22T16:01:00-23:59", datetime(2024, 7, 23, 16, tzinfo=UTC)),
    ("2024-07-23T16:00:00+01:75", None),        # offset minute past 59
    ("2024-07-23T16:00:00+01:60", None),
    ("2024-07-23T16:00:00+24:00", None),        # offset hour past 23
    ("2024-07-23T16:00:00-99:00", None),
    ("2024-07-23T16:00:00.1234567Z", None),     # 7 fraction digits
    ("20240723T160000Z", None),                 # basic format
    ("2024-07-23X16:00:00Z", None),             # separator other than T or space
    ("2024-07-23T16:00Z", None),                # no seconds
    ("2024-07-23T16Z", None),
    ("2024-07-23", None),
    ("2024-07-23T16:00:00,5Z", None),           # decimal comma
    ("2024-W30-2T16:00:00Z", None),             # week date
    ("2024-205T16:00:00Z", None),               # ordinal date
    ("2024-07-23T16:00:00+0100", None),
    ("2024-07-23T16:00:00+01", None),
    ("2024-07-23T16:00:00+01:00:30", None),     # offset with seconds
    ("2024-07-23T16:00:00", None),              # no offset
    ("٢٠٢٤-07-23T16:00:00Z", None),             # non-ASCII digits
])
def test_timestamp_grammar(text, expected):
    """One grammar, YYYY-MM-DD[T ]HH:MM:SS[.f{1,6}](Z|±HH:MM), on every Python
    version: ``datetime.fromisoformat`` alone accepts more from 3.11 on."""
    if expected is None:
        with pytest.raises(ValueError):
            parse_timestamp(text)
    else:
        assert parse_timestamp(text) == expected


class TestIndexLabel:
    CFG = MarketConfig(index_x=1, delta_c_minutes=30)

    def test_weighted_mean(self):
        trades = [trade(50, price=10.0, volume=1.0), trade(40, price=20.0, volume=3.0)]
        assert compute_index_label(table(trades), DELIVERY, self.CFG) == pytest.approx(17.5, abs=1e-12)

    def test_singleton(self):
        assert compute_index_label(table([trade(45, price=42.0, volume=5.0)]), DELIVERY, self.CFG) == 42.0

    def test_window_boundaries(self):
        cfg = self.CFG
        inside_start = trade(60, price=1.0)           # t == t_f, inclusive
        outside_end = trade(30, price=1000.0)         # t == t_d - delta_c, exclusive
        inside = trade(59, price=3.0)
        label = compute_index_label(table([inside_start, outside_end, inside]), DELIVERY, cfg)
        assert label == pytest.approx(2.0)

    def test_empty_window_raises(self):
        with pytest.raises(NoLabelError):
            compute_index_label(table([trade(90)]), DELIVERY, self.CFG)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        trades = []
        for _ in range(200):
            trades.append(
                trade(
                    float(rng.uniform(0, 240)),
                    side=BUY if rng.random() < 0.5 else SELL,
                    price=float(rng.normal(80, 20)),
                    volume=float(rng.lognormal(0, 1)),
                )
            )
        start = DELIVERY - timedelta(minutes=60)
        end = DELIVERY - timedelta(minutes=30)
        picked = [t for t in trades if start <= t[4] < end]
        oracle = math.fsum(t[2] * t[3] for t in picked) / math.fsum(t[3] for t in picked)
        assert compute_index_label(table(trades), DELIVERY, self.CFG) == pytest.approx(oracle, abs=1e-10)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, pyrng):
        rng = np.random.default_rng(11)
        trades = [
            trade(float(rng.uniform(10, 120)), price=float(rng.normal(60, 30)), volume=float(rng.lognormal(0, 1)))
            for _ in range(50)
        ]
        base = compute_index_label(table(trades), DELIVERY, self.CFG)
        shuffled = list(trades)
        pyrng.shuffle(shuffled)
        assert compute_index_label(table(shuffled), DELIVERY, self.CFG) == base


class TestBuildSample:
    CFG = MarketConfig(index_x=1, delta_c_minutes=30)

    def test_single_buy_trade(self):
        trades = [trade(90, price=70.0), trade(45, price=50.0)]  # second one labels the window
        [s], _ = build_dataset(table(trades), self.CFG)
        assert s.buy_matrix.shape == (1, 3)
        assert s.buy_matrix[0, 2] == pytest.approx(90.0)
        assert s.label == 50.0

    def test_trade_at_forecast_time_excluded(self):
        at_boundary = trade(60, price=99.0)
        in_window = trade(45, price=50.0)
        [s], _ = build_dataset(table([at_boundary, in_window]), self.CFG)
        assert s.buy_matrix.shape == (0, 3)

    def test_rows_time_ascending_and_lead_invariant(self):
        rng = np.random.default_rng(5)
        trades = [
            trade(float(rng.uniform(0, 300)), side=BUY if rng.random() < 0.5 else SELL)
            for _ in range(300)
        ]
        [s], _ = build_dataset(table(trades), self.CFG)
        for matrix in (s.buy_matrix, s.sell_matrix):
            deltas = matrix[:, 2]
            assert (deltas > self.CFG.lead_minutes).all()
            assert (np.diff(deltas) <= 0).all()  # ascending time = descending minutes-to-delivery

    def test_counts_match_brute_force_filter(self):
        rng = np.random.default_rng(9)
        trades = [
            trade(float(rng.uniform(0, 300)), side=BUY if rng.random() < 0.4 else SELL)
            for _ in range(500)
        ]
        [s], _ = build_dataset(table(trades), self.CFG)
        t_f = DELIVERY - timedelta(minutes=60)
        n_buy = sum(1 for t in trades if t[1] == BUY and t[4] < t_f)
        n_sell = sum(1 for t in trades if t[1] == SELL and t[4] < t_f)
        assert s.buy_matrix.shape[0] == n_buy
        assert s.sell_matrix.shape[0] == n_sell

    def test_dataset_drop_counting(self):
        other = DELIVERY + timedelta(hours=1)
        trades = [trade(45, price=50.0), trade(200, delivery=other)]  # second delivery has empty window
        samples, report = build_dataset(table(trades), self.CFG)
        assert report.n_deliveries == 2
        assert report.n_samples == 1
        assert report.n_dropped_empty_window == 1
        assert samples[0].delivery_start == DELIVERY

    def test_dataset_in_ascending_delivery_order(self):
        deliveries = [DELIVERY + timedelta(hours=h) for h in range(12)]
        trades = [trade(m, price=50.0 + h, delivery=d)
                  for h, d in enumerate(deliveries) for m in (90, 45)]
        np.random.default_rng(11).shuffle(trades)
        samples, _ = build_dataset(Trades.concat([table([t]) for t in trades]), self.CFG)
        assert [s.delivery_start for s in samples] == deliveries


class TestShuffledTies:
    """A shuffled trade file whose trades share microseconds, on one side and
    across sides, against a brute-force oracle over plain tuples in file
    order: feature rows are time-ascending with equal times in file order,
    and the last price is the first in file order among the latest trades."""

    CFG = MarketConfig(index_x=1, delta_c_minutes=30)

    def test_samples_labels_and_last_price(self, tmp_path):
        rng = np.random.default_rng(23)
        rows = []
        for h in range(4):
            delivery = DELIVERY + timedelta(hours=h)
            for _ in range(80):
                # 10 minute marks times 3 microsecond offsets: about 3 trades per instant
                t = (delivery - timedelta(minutes=10 * int(rng.integers(1, 11)))
                     + timedelta(microseconds=int(rng.choice([0, 1, 999_999]))))
                rows.append((delivery, BUY if rng.random() < 0.5 else SELL,
                             float(rng.normal(80, 20)), float(rng.lognormal(0, 1)), t))
        rng.shuffle(rows)
        instants = [(r[0], r[4]) for r in rows]
        assert len(set(instants)) < len(instants)
        assert len({(r[0], r[1], r[4]) for r in rows}) < len(rows)
        path = tmp_path / "trades.csv"
        path.write_text("delivery_start,side,price,volume,transaction_time\n" + "".join(
            f"{format_timestamp(d)},{'+' if side == BUY else '-'},{p!r},{v!r},{format_timestamp(t)}\n"
            for d, side, p, v, t in rows))

        trades = parse_trades(path)
        samples, report = build_dataset(trades, self.CFG)
        deliveries, parts = delivery_slices(trades)
        assert [s.delivery_start for s in samples] == [DELIVERY + timedelta(hours=h) for h in range(4)]
        assert report.n_dropped_empty_window == 0
        for s, part in zip(samples, parts):
            mine = [r for r in rows if r[0] == s.delivery_start]
            t_f = s.forecast_time
            for side, matrix in ((BUY, s.buy_matrix), (SELL, s.sell_matrix)):
                before = sorted((r for r in mine if r[1] == side and r[4] < t_f), key=lambda r: r[4])
                expected = [[r[2], r[3], (r[0] - r[4]).total_seconds() / 60.0] for r in before]
                np.testing.assert_array_equal(matrix, np.array(expected).reshape(-1, 3))
            window = [r for r in mine if t_f <= r[4] < s.delivery_start - timedelta(minutes=30)]
            assert s.label == math.fsum(r[2] * r[3] for r in window) / math.fsum(r[3] for r in window)
            latest = max(r[4] for r in mine if r[4] < t_f)
            first = next(r for r in mine if r[4] == latest)
            assert feature_last_price(part, t_f) == first[2]


class TestScaling:
    def test_percentile_oracle(self):
        data = np.array([[1.0], [2.0], [3.0], [100.0]])
        scaler = RobustScaler.fit(data)
        assert scaler.medians[0] == pytest.approx(2.5)
        assert scaler.iqrs[0] == pytest.approx(np.percentile(data[:, 0], 75) - np.percentile(data[:, 0], 25))

    def test_constant_feature(self):
        data = np.full((10, 1), 7.0)
        scaler = RobustScaler.fit(data)
        assert scaler.iqrs[0] == 1.0
        assert (scaler.transform(data) == 0.0).all()

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(50, 3)) * [10.0, 2.0, 600.0]
        scaler = RobustScaler.fit(data)
        np.testing.assert_allclose(scaler.inverse(scaler.transform(data)), data, atol=1e-10)

    def test_value_at_median_maps_to_zero(self):
        data = np.array([[1.0], [5.0], [9.0]])
        scaler = RobustScaler.fit(data)
        assert scaler.transform(np.array([[5.0]]))[0, 0] == 0.0

    def test_fit_on_samples_centers_and_normalizes(self):
        rng = np.random.default_rng(33)
        samples = []
        for i in range(40):
            delivery = DELIVERY + timedelta(hours=i)
            trades = [
                trade(float(rng.uniform(61, 200)), price=float(rng.normal(80, 15)),
                      volume=float(rng.lognormal(0, 0.6)), delivery=delivery,
                      side=BUY if rng.random() < 0.5 else SELL)
                for _ in range(20)
            ] + [trade(40, price=float(rng.normal(80, 15)), delivery=delivery)]
            samples += build_dataset(table(trades), MarketConfig(1, 30))[0]
        feat, lab = fit_scaler(samples)
        scaled = [apply_scaler(s, feat, lab) for s in samples]
        pooled = np.vstack([m for s in scaled for m in (s.buy_matrix, s.sell_matrix)])
        med = np.percentile(pooled, 50, axis=0)
        np.testing.assert_allclose(med, 0.0, atol=1e-10)
        spread = np.percentile(pooled, 75, axis=0) - np.percentile(pooled, 25, axis=0)
        np.testing.assert_allclose(spread, 1.0, atol=1e-9)
        labels = np.array([[s.label] for s in samples])
        back = lab.inverse(np.array([[s.label] for s in scaled]))
        np.testing.assert_allclose(back, labels, atol=1e-10)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler([])
