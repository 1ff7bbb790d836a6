import math
from datetime import datetime, timezone
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfusion.evaluation import (
    aiw,
    aqcr,
    dm_test,
    evaluate_forecasts,
    per_sample_aql,
    pointwise,
    symmetric_pairs,
    write_metric_report,
    write_plot_csv,
)
from orderfusion.training import pinball

QUANTILES = (0.10, 0.25, 0.45, 0.50, 0.55, 0.75, 0.90)


class TestAqcr:
    def test_sorted_forecast_has_no_crossings(self):
        assert aqcr(np.arange(1.0, 8.0).reshape(1, 7)) == 0.0

    def test_single_crossing_of_three_pairs(self):
        assert aqcr(np.array([[2.0, 1.0, 3.0]])) == pytest.approx(100.0 / 3.0)

    def test_fully_reversed(self):
        assert aqcr(np.arange(7.0, 0.0, -1.0).reshape(1, 7)) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aqcr(np.zeros((0, 7)))

    def test_single_column_rejected(self):
        # no ordered pair to count crossings over
        with pytest.raises(ValueError, match="q >= 2"):
            aqcr(np.zeros((5, 1)))

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        forecasts = rng.normal(size=(40, 7))
        n, q = forecasts.shape
        count = 0
        total = 0
        for i in range(n):
            for lo, hi in combinations(range(q), 2):
                total += 1
                if forecasts[i, lo] > forecasts[i, hi]:
                    count += 1
        assert aqcr(forecasts) == pytest.approx(100.0 * count / total, abs=1e-10)


class TestAiw:
    def test_direct_mean(self):
        # widths 8, 4, 1 for the (q10,q90), (q25,q75), (q45,q55) pairs
        forecast = np.array([[0.0, 1.0, 2.0, 2.5, 3.0, 5.0, 8.0]])
        assert aiw(forecast, QUANTILES) == pytest.approx((8.0 + 4.0 + 1.0) / 3.0)

    def test_degenerate_equal_quantiles(self):
        assert aiw(np.full((5, 7), 3.25), QUANTILES) == 0.0

    def test_linear_in_scale(self):
        rng = np.random.default_rng(5)
        forecasts = np.sort(rng.normal(size=(30, 7)), axis=1)
        assert aiw(2.0 * forecasts, QUANTILES) == pytest.approx(2.0 * aiw(forecasts, QUANTILES))

    def test_symmetric_pairs_derivation(self):
        pairs = symmetric_pairs(QUANTILES)
        levels = [(QUANTILES[lo], QUANTILES[hi]) for lo, hi in pairs]
        assert levels == [(0.10, 0.90), (0.25, 0.75), (0.45, 0.55)]


class TestPointwise:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        rmse, mae, r2 = pointwise(y, y)
        assert (rmse, mae, r2) == (0.0, 0.0, 1.0)

    def test_constant_at_mean_gives_zero_r2(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        rmse, mae, r2 = pointwise(y, np.full(4, y.mean()))
        assert r2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_reports_missing(self):
        _, _, r2 = pointwise(np.full(5, 2.0), np.zeros(5))
        assert r2 is None

    def test_against_direct_formulas(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=100)
        yhat = rng.normal(size=100)
        rmse, mae, r2 = pointwise(y, yhat)
        assert rmse == pytest.approx(math.sqrt(sum((a - b) ** 2 for a, b in zip(y, yhat)) / 100), abs=1e-10)
        assert mae == pytest.approx(sum(abs(a - b) for a, b in zip(y, yhat)) / 100, abs=1e-10)
        ss_res = sum((a - b) ** 2 for a, b in zip(y, yhat))
        ss_tot = sum((a - y.mean()) ** 2 for a in y)
        assert r2 == pytest.approx(1 - ss_res / ss_tot, abs=1e-10)


class TestDmTest:
    def test_identical_series(self):
        a = np.arange(20.0)
        assert dm_test(a, a) == (0.0, 1.0)

    def test_constant_shift_dominance_sentinel(self):
        b = np.arange(20.0)
        stat, p = dm_test(b - 1.0, b)
        assert stat == -math.inf
        assert p == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        s_ab, p_ab = dm_test(a, b)
        s_ba, p_ba = dm_test(b, a)
        assert s_ab == pytest.approx(-s_ba)
        assert p_ab == pytest.approx(p_ba)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            dm_test(np.zeros(5), np.zeros(5))

    def test_monte_carlo_power(self):
        detections = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            d = rng.normal(-0.5, 1.0, size=400)
            stat, p = dm_test(d, np.zeros(400))
            if p < 0.05 and stat < 0:
                detections += 1
        assert detections >= 95


class TestReportAndFiles:
    def _forecasts(self, n=40, seed=13):
        rng = np.random.default_rng(seed)
        y = rng.normal(50, 10, size=n)
        forecasts = np.sort(y.reshape(-1, 1) + rng.normal(0, 3, size=(n, 7)), axis=1)
        return y, forecasts

    def test_report_fields(self):
        y, forecasts = self._forecasts()
        report = evaluate_forecasts(y, forecasts, QUANTILES)
        assert report.n_samples == 40
        assert 0.0 <= report.aqcr <= 100.0
        assert report.aiw >= 0.0
        assert report.symmetric_pair_levels == ((0.10, 0.90), (0.25, 0.75), (0.45, 0.55))

    def test_metrics_permutation_invariant(self):
        y, forecasts = self._forecasts()
        report = evaluate_forecasts(y, forecasts, QUANTILES)
        perm = np.random.default_rng(17).permutation(len(y))
        shuffled = evaluate_forecasts(y[perm], forecasts[perm], QUANTILES)
        assert shuffled.aql == pytest.approx(report.aql, abs=1e-12)
        assert shuffled.aqcr == report.aqcr
        assert shuffled.aiw == pytest.approx(report.aiw, abs=1e-12)
        assert shuffled.rmse == pytest.approx(report.rmse, abs=1e-12)

    def test_per_sample_aql_matches_pinball(self):
        y, forecasts = self._forecasts(n=10)
        losses = per_sample_aql(y, forecasts, QUANTILES)
        for i in range(10):
            expected = np.mean([pinball(y[i], forecasts[i, j], tau) for j, tau in enumerate(QUANTILES)])
            assert losses[i] == pytest.approx(expected, abs=1e-12)

    def test_json_and_csv_outputs(self, tmp_path):
        import csv as csv_mod
        import json

        y, forecasts = self._forecasts(n=5)
        report = evaluate_forecasts(y, forecasts, QUANTILES)
        report_path = tmp_path / "report.json"
        write_metric_report(report_path, report)
        payload = json.loads(report_path.read_text())
        assert payload["n_samples"] == 5

        deliveries = [datetime(2024, 1, 1, h, tzinfo=timezone.utc) for h in range(5)]
        plot_path = tmp_path / "plot.csv"
        write_plot_csv(plot_path, deliveries, y, forecasts, QUANTILES)
        with open(plot_path) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == ["delivery_start", "y_true", "q10", "q25", "q45", "q50", "q55", "q75", "q90"]
        assert len(rows) == 6
        assert float(rows[1][1]) == y[0]


@given(st.lists(st.floats(-1000, 1000), min_size=7, max_size=7))
@settings(max_examples=60, deadline=None)
def test_aiw_non_negative_when_no_crossing(values):
    forecast = np.sort(np.array(values)).reshape(1, 7)
    assert aqcr(forecast) == 0.0
    assert aiw(forecast, QUANTILES) >= 0.0
