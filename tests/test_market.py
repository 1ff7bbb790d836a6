import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfusion.baselines import feature_last_price
from orderfusion.market import (
    MarketConfig,
    NoLabelError,
    ParseError,
    RobustScaler,
    Trades,
    apply_scaler,
    build_dataset,
    build_sample,
    compute_index_label,
    delivery_slices,
    fit_scaler,
    format_timestamp,
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
        s = build_sample(table(trades), DELIVERY, self.CFG)
        assert s.buy_matrix.shape == (1, 3)
        assert s.buy_matrix[0, 2] == pytest.approx(90.0)
        assert s.label == 50.0

    def test_trade_at_forecast_time_excluded(self):
        at_boundary = trade(60, price=99.0)
        in_window = trade(45, price=50.0)
        s = build_sample(table([at_boundary, in_window]), DELIVERY, self.CFG)
        assert s.buy_matrix.shape == (0, 3)

    def test_rows_time_ascending_and_lead_invariant(self):
        rng = np.random.default_rng(5)
        trades = [
            trade(float(rng.uniform(0, 300)), side=BUY if rng.random() < 0.5 else SELL)
            for _ in range(300)
        ]
        s = build_sample(table(trades), DELIVERY, self.CFG)
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
        s = build_sample(table(trades), DELIVERY, self.CFG)
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
            samples.append(build_sample(table(trades), delivery, MarketConfig(1, 30)))
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
