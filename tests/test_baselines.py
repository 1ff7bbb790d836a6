import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from orderfusion import baselines
from orderfusion.baselines import (
    MLPConfig,
    ResidualQuantiles,
    feature_last_price,
    feature_vwap15,
    lqr_fit,
    lqr_predict,
    mlp_fit,
    naive_point,
    naive_probabilistic,
)
from orderfusion.evaluation import aql
from orderfusion.market import MarketConfig, Sample, Trades
from orderfusion.training import TrainConfig

UTC = timezone.utc
QUANTILES = (0.10, 0.25, 0.45, 0.50, 0.55, 0.75, 0.90)
DE1 = MarketConfig.for_market("DE", 1)


def hourly_labels(values, start=datetime(2024, 1, 1, tzinfo=UTC)):
    return {start + timedelta(hours=i): float(v) for i, v in enumerate(values)}


class TestNaivePoint:
    def test_prev_hour(self):
        labels = hourly_labels([40.0, 50.0])
        target = datetime(2024, 1, 1, 2, tzinfo=UTC)
        assert naive_point(labels, target, "prev_hour", DE1) == 50.0

    def test_prev_hour_skips_gaps(self):
        labels = {datetime(2024, 1, 1, 0, tzinfo=UTC): 33.0}
        target = datetime(2024, 1, 1, 5, tzinfo=UTC)
        assert naive_point(labels, target, "prev_hour", DE1) == 33.0

    def test_mean3_same_hour(self):
        start = datetime(2024, 1, 1, 12, tzinfo=UTC)
        labels = {start + timedelta(days=d): v for d, v in enumerate([10.0, 20.0, 30.0])}
        target = start + timedelta(days=3)
        assert naive_point(labels, target, "mean3_same_hour", DE1) == pytest.approx(20.0)

    def test_prev_day_matches_lookup_oracle(self):
        rng = np.random.default_rng(3)
        deliveries = [datetime(2024, 1, 1, tzinfo=UTC) + timedelta(hours=i) for i in range(24 * 7)]
        values = rng.normal(60, 20, size=len(deliveries))
        order = rng.permutation(len(deliveries))
        labels = {deliveries[i]: float(values[i]) for i in order}  # shuffled insertion
        for i in range(24, len(deliveries)):
            expected = labels[deliveries[i] - timedelta(days=1)]
            assert naive_point(labels, deliveries[i], "prev_day_same_hour", DE1) == expected

    def test_missing_history_returns_none(self):
        labels = hourly_labels([1.0])
        early = datetime(2023, 12, 31, tzinfo=UTC)
        assert naive_point(labels, early, "prev_hour", DE1) is None
        assert naive_point(labels, early, "mean3_same_hour", DE1) is None

    @pytest.mark.parametrize("market, index, expected", [
        ("DE", 1, 50.0), ("AT", 1, 50.0), ("DE", 2, 40.0), ("AT", 2, 40.0), ("DE", 3, 30.0),
    ])
    def test_prev_hour_reads_only_published_labels(self, market, index, expected):
        # the label of delivery d' is out at d' - delta_c; the forecast for
        # 03:00 is made at 03:00 - index hours
        labels = hourly_labels([30.0, 40.0, 50.0])
        target = datetime(2024, 1, 1, 3, tzinfo=UTC)
        cfg = MarketConfig.for_market(market, index)
        assert naive_point(labels, target, "prev_hour", cfg) == expected

    def test_residuals_use_published_labels(self):
        # labels rising 1 per hour: the residual of prev_hour is the number
        # of hours it looks back, 1 at index 1 and 2 at index 2
        labels = hourly_labels(np.arange(24 * 3, dtype=float))
        for index in (1, 2):
            rq = ResidualQuantiles.fit(labels, "prev_hour", MarketConfig.for_market("DE", index),
                                       QUANTILES)
            np.testing.assert_array_equal(rq.per_hour[5], np.full(7, float(index)))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            naive_point({}, datetime(2024, 1, 1, tzinfo=UTC), "nope", DE1)


class TestNaiveProbabilistic:
    def test_zero_residuals_collapse_to_point(self):
        labels = hourly_labels([5.0] * 96)  # constant labels, zero residuals
        rq = ResidualQuantiles.fit(labels, "prev_day_same_hour", DE1, QUANTILES)
        out = naive_probabilistic(rq, 42.0, hour=3)
        np.testing.assert_array_equal(out, np.full(7, 42.0))

    def test_symmetric_residuals_zero_median_adjustment(self):
        start = datetime(2024, 1, 1, 9, tzinfo=UTC)
        # day-over-day differences { +3, -3, +1, -1 } at one hour: symmetric
        values = [0.0, 3.0, 0.0, 1.0, 0.0]
        labels = {start + timedelta(days=d): v for d, v in enumerate(values)}
        rq = ResidualQuantiles.fit(labels, "prev_day_same_hour", DE1, QUANTILES)
        adjustment = rq.per_hour[9]
        assert adjustment[QUANTILES.index(0.50)] == pytest.approx(0.0, abs=1e-12)

    def test_output_monotone_in_level(self):
        rng = np.random.default_rng(9)
        labels = hourly_labels(rng.normal(50, 15, size=24 * 30))
        rq = ResidualQuantiles.fit(labels, "prev_hour", DE1, QUANTILES)
        for hour in rq.per_hour:
            out = naive_probabilistic(rq, 10.0, hour)
            assert (np.diff(out) >= 0).all()

    def test_unseen_hour_rejected(self):
        rq = ResidualQuantiles(quantiles=QUANTILES, per_hour={0: np.zeros(7)})
        with pytest.raises(ValueError):
            naive_probabilistic(rq, 1.0, hour=5)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(11)
        values = rng.normal(60, 10, size=24 * 20)
        outputs = []
        for _ in range(5):
            rq = ResidualQuantiles.fit(hourly_labels(values), "prev_hour", DE1, QUANTILES)
            outputs.append(naive_probabilistic(rq, 55.0, hour=12))
        for out in outputs[1:]:
            np.testing.assert_array_equal(out, outputs[0])


BUY, SELL = 1, -1


def make_trade(delivery, minutes_before_forecast, price, volume=1.0, side=BUY, lead=60):
    """(delivery, side, price, volume, transaction_time)"""
    t_f = delivery - timedelta(minutes=lead)
    return (delivery, side, price, volume, t_f - timedelta(minutes=minutes_before_forecast))


def table(rows):
    """A Trades table of ``make_trade`` tuples in transaction-time order,
    equal times in list order."""
    rows = sorted(rows, key=lambda r: r[4])
    return Trades(np.array([Trades.to_us(r[0]) for r in rows], dtype=np.int64),
                  np.array([Trades.to_us(r[4]) for r in rows], dtype=np.int64),
                  np.array([r[1] for r in rows], dtype=np.int8),
                  np.array([r[2] for r in rows], dtype=np.float64),
                  np.array([r[3] for r in rows], dtype=np.float64))


class TestFeatures:
    DELIVERY = datetime(2024, 5, 1, 14, tzinfo=UTC)
    T_F = DELIVERY - timedelta(minutes=60)

    def test_vwap15_single_trade(self):
        trades = [make_trade(self.DELIVERY, 5.0, 30.0, 2.0)]
        assert feature_vwap15(table(trades), self.T_F) == 30.0

    def test_vwap15_weighted(self):
        trades = [
            make_trade(self.DELIVERY, 5.0, 10.0, 1.0),
            make_trade(self.DELIVERY, 10.0, 20.0, 3.0, side=SELL),
        ]
        assert feature_vwap15(table(trades), self.T_F) == pytest.approx(17.5)

    def test_vwap15_matches_filter_oracle(self):
        rng = np.random.default_rng(13)
        trades = [
            make_trade(self.DELIVERY, float(rng.uniform(-30, 60)), float(rng.normal(50, 20)),
                       float(rng.lognormal(0, 1)))
            for _ in range(300)
        ]
        start = self.T_F - timedelta(minutes=15)
        picked = [t for t in trades if start <= t[4] < self.T_F]
        oracle = math.fsum(t[2] * t[3] for t in picked) / math.fsum(t[3] for t in picked)
        assert feature_vwap15(table(trades), self.T_F) == pytest.approx(oracle, abs=1e-12)

    def test_vwap15_falls_back_to_last_price(self):
        trades = [make_trade(self.DELIVERY, 100.0, 77.0)]  # far before the window
        assert feature_vwap15(table(trades), self.T_F) == 77.0

    def test_no_trades_gives_none(self):
        assert feature_vwap15(table([]), self.T_F) is None
        assert feature_last_price(table([]), self.T_F) is None

    def test_last_price_picks_latest(self):
        trades = [make_trade(self.DELIVERY, 3.0, 5.0), make_trade(self.DELIVERY, 1.0, 9.0)]
        assert feature_last_price(table(trades), self.T_F) == 9.0

    def test_last_price_matches_argmax_oracle(self):
        rng = np.random.default_rng(17)
        trades = [
            make_trade(self.DELIVERY, float(rng.uniform(0.1, 200)), float(rng.normal(40, 10)))
            for _ in range(100)
        ]
        rng.shuffle(trades)
        oracle = max(trades, key=lambda t: t[4])[2]
        assert feature_last_price(table(trades), self.T_F) == oracle

    def test_vwap15_agrees_with_index_labeler_on_matching_window(self):
        # lead 30 / gate closure 15 gives a 15-minute label window; pointing
        # the feature window at the same interval must reproduce the label
        from orderfusion.market import MarketConfig, compute_index_label

        rng = np.random.default_rng(19)
        delivery = self.DELIVERY
        cfg = MarketConfig(index_x=1, delta_c_minutes=45)  # window [t-60, t-45)
        trades = table([
            (
                delivery,
                BUY if rng.random() < 0.5 else SELL,
                float(rng.normal(60, 15)),
                float(rng.lognormal(0, 0.7)),
                delivery - timedelta(minutes=float(rng.uniform(30, 90))),
            )
            for _ in range(200)
        ])
        label = compute_index_label(trades, delivery, cfg)
        feature = feature_vwap15(trades, delivery - timedelta(minutes=45))
        assert feature == label


class TestLqr:
    def test_identity_relation(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=400)
        models = lqr_fit(x, x, quantiles=(0.25, 0.5, 0.75))
        for tau, (w, b) in models.items():
            assert w[0] == pytest.approx(1.0, abs=1e-2)
            assert b == pytest.approx(0.0, abs=1e-2)

    def test_constant_target(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=300)
        models = lqr_fit(x, np.full(300, 2.0), quantiles=(0.1, 0.5, 0.9))
        for tau, (w, b) in models.items():
            assert w[0] == pytest.approx(0.0, abs=1e-2)
            assert b == pytest.approx(2.0, abs=1e-2)

    def test_median_recovery_under_symmetric_noise(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=800)
        y = 2.0 * x + rng.normal(0, 0.5, size=800)
        models = lqr_fit(x, y, quantiles=(0.5,), iterations=4000)
        w, b = models[0.5]
        assert w[0] == pytest.approx(2.0, abs=0.15)
        assert b == pytest.approx(0.0, abs=0.15)

    def test_predict_shape_and_order(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=50)
        models = lqr_fit(x, x, quantiles=QUANTILES, iterations=200)
        pred = lqr_predict(models, x)
        assert pred.shape == (50, 7)


class TestMlp:
    def test_beats_lqr_on_quadratic_relation(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(-2, 2, size=500)
        y = x ** 2 + rng.normal(0, 0.05, size=500)
        lqr_models = lqr_fit(x, y, quantiles=QUANTILES)
        lqr_aql = aql(y, lqr_predict(lqr_models, x), QUANTILES)
        cfg = MLPConfig(hidden_size=16, n_layers=2, dropout=0.0)
        tcfg = TrainConfig(epochs=150, batch_size=128, lr0=1e-2, seed=5)
        model = mlp_fit(x, y, x, y, tcfg, cfg, QUANTILES)
        mlp_aql = aql(y, model.predict(x), QUANTILES)
        assert mlp_aql < lqr_aql

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=120)
        y = x * 3.0
        tcfg = TrainConfig(epochs=3, batch_size=64, lr0=1e-2, seed=9)
        m1 = mlp_fit(x, y, x, y, tcfg, quantiles=QUANTILES)
        m2 = mlp_fit(x, y, x, y, tcfg, quantiles=QUANTILES)
        np.testing.assert_array_equal(m1.predict(x), m2.predict(x))

    def test_output_width(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=60)
        tcfg = TrainConfig(epochs=1, batch_size=64, seed=1)
        model = mlp_fit(x, x, x, x, tcfg, quantiles=QUANTILES)
        assert model.predict(x).shape == (60, 7)

    def test_golden_predictions(self):
        """Pinned predictions, so that a change in the order of the shuffle
        and dropout draws shows: dropout 0.2, batches of 16 out of 70 rows,
        a decay step at epoch 10."""
        rng = np.random.default_rng(47)
        x = rng.normal(size=90)
        y = np.sin(x) + 0.1 * rng.normal(size=90)
        tcfg = TrainConfig(epochs=12, batch_size=16, lr0=1e-2, decay=0.5, seed=9)
        model = mlp_fit(x[:70], y[:70], x[70:], y[70:], tcfg,
                        MLPConfig(hidden_size=8, dropout=0.2), (0.1, 0.5, 0.9))
        golden = [[-1.0189381184285553, -0.6439136476260644, -0.15375706866027633],
                  [-0.2688558733024008, 0.019738647672197275, 0.4474317480032183],
                  [0.6734668196687726, 0.8193495697221579, 1.5549533933108763]]
        np.testing.assert_allclose(model.predict(np.array([-1.0, 0.0, 1.5])), golden,
                                   rtol=0, atol=1e-12)

    def test_empty_validation_rejected(self):
        x = np.random.default_rng(53).normal(size=20)
        with pytest.raises(ValueError, match="non-empty"):
            mlp_fit(x, x, x[:0], x[:0], TrainConfig(epochs=1), quantiles=QUANTILES)


class TestFeatureBaseline:
    def test_best_of_pair_is_chosen_on_validation(self, monkeypatch):
        """Labels equal the last price on the training and validation
        deliveries, and sit at the training median on the test ones: LQR
        wins on validation, a constant median forecaster on test."""
        rng = np.random.default_rng(59)
        t0 = datetime(2024, 5, 1, tzinfo=UTC)
        deliveries = [t0 + timedelta(hours=i) for i in range(100)]
        prices = rng.uniform(20.0, 80.0, size=100)
        labels = prices.copy()
        labels[80:] = np.median(prices[:60])
        trades = table([make_trade(d, 5.0, float(p)) for d, p in zip(deliveries, prices)])
        samples = [Sample(delivery_start=d, buy_matrix=np.zeros((0, 3)),
                          sell_matrix=np.zeros((0, 3)), label=float(y),
                          forecast_time=d - timedelta(minutes=60))
                   for d, y in zip(deliveries, labels)]

        class Median:       # the training median in scaled label space
            def predict(self, x):
                return np.zeros((len(x), len(QUANTILES)))

        monkeypatch.setattr(baselines, "mlp_fit", lambda *args, **kwargs: Median())
        rows = baselines.feature_baseline("last_price", trades, samples[:60], samples[60:80],
                                          samples[80:], TrainConfig(epochs=1), MLPConfig(),
                                          QUANTILES)
        (lqr_name, lqr, lqr_best), (mlp_name, mlp, mlp_best) = rows
        assert (lqr_name, mlp_name) == ("last_price_lqr", "last_price_mlp")
        assert mlp.aql < lqr.aql            # the test split favours the constant
        assert (lqr_best, mlp_best) == ("yes", "no")
