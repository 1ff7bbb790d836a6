import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfusion import model as M
from orderfusion import tensor as T
from orderfusion import training
from orderfusion.cli import dispatch
from orderfusion.evaluation import aql
from orderfusion.market import Sample
from orderfusion.model import (COMPUTE_DTYPE, ModelConfig, encode_samples, init_params,
                               predict_batch, score_batch, slice_rows)
from orderfusion.training import (
    DivergenceError,
    FoldSpec,
    OptimizerState,
    RollingSpec,
    TrainConfig,
    adam_step,
    aql_loss,
    add_months,
    grid_search,
    lr_at,
    pinball,
    rolling_folds,
    train,
)

UTC = timezone.utc


def synthetic_scaled_samples(rng, n, rows_per_side=8, noise=0.05):
    """Already-scaled samples whose label is the mean price of the last
    four rows of each side, plus small noise. Prices are i.i.d., so a
    cutoff shorter than four rows genuinely loses information."""
    samples = []
    for i in range(n):
        buy = np.column_stack([
            rng.normal(size=rows_per_side),
            rng.normal(size=rows_per_side),
            np.linspace(1.5, 0.5, rows_per_side),
        ])
        sell = np.column_stack([
            rng.normal(size=rows_per_side),
            rng.normal(size=rows_per_side),
            np.linspace(1.5, 0.5, rows_per_side),
        ])
        label = float(0.5 * (buy[-4:, 0].mean() + sell[-4:, 0].mean()) + noise * rng.normal())
        samples.append(Sample(
            delivery_start=datetime(2024, 1, 1, tzinfo=UTC).replace(hour=i % 24, day=1 + i // 24 % 27),
            buy_matrix=buy,
            sell_matrix=sell,
            label=label,
            forecast_time=datetime(2024, 1, 1, tzinfo=UTC),
        ))
    return samples


class TestPinball:
    def test_zero_residual(self):
        assert pinball(5.0, 5.0, 0.3) == 0.0

    def test_under_prediction_high_tau(self):
        assert pinball(10.0, 0.0, 0.9) == pytest.approx(9.0)

    def test_over_prediction_low_tau(self):
        assert pinball(0.0, 10.0, 0.1) == pytest.approx(9.0)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            pinball(1.0, 0.0, 1.0)

    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(0.01, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_non_negative(self, y, yhat, tau):
        assert pinball(y, yhat, tau) >= 0.0


class TestAql:
    def test_single_sample_single_quantile_equals_pinball(self):
        assert aql([3.0], [[1.0]], [0.7]) == pytest.approx(pinball(3.0, 1.0, 0.7))

    def test_perfect_forecast(self):
        y = np.arange(5.0)
        forecasts = np.tile(y.reshape(-1, 1), (1, 3))
        assert aql(y, forecasts, [0.1, 0.5, 0.9]) == 0.0

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(55)
        quantiles = [0.10, 0.25, 0.45, 0.50, 0.55, 0.75, 0.90]
        y = rng.normal(size=50)
        forecasts = rng.normal(size=(50, 7))
        total = 0.0
        for i in range(50):
            for j, tau in enumerate(quantiles):
                total += pinball(y[i], forecasts[i, j], tau)
        oracle = total / (50 * 7)
        assert aql(y, forecasts, quantiles) == pytest.approx(oracle, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aql([], np.zeros((0, 3)), [0.1, 0.5, 0.9])

    def test_zero_iff_forecasts_equal_targets(self):
        quantiles = (0.1, 0.25, 0.45, 0.5, 0.55, 0.75, 0.9)
        rng = np.random.default_rng(61)
        y = rng.normal(size=30)
        exact = np.tile(y.reshape(-1, 1), (1, 7))
        assert aql(y, exact, quantiles) == 0.0
        off = exact.copy()
        off[11, 3] += 1e-6
        assert aql(y, off, quantiles) > 0.0

    def test_graph_version_matches(self):
        rng = np.random.default_rng(57)
        quantiles = (0.1, 0.5, 0.9)
        y = rng.normal(size=(20, 1))
        pred = rng.normal(size=(20, 3))
        graph = aql_loss(T.constant(pred), T.constant(y), quantiles)
        assert graph.item() == pytest.approx(aql(y, pred, quantiles), abs=1e-12)


class TestAdam:
    def _scalar_param(self, value):
        from orderfusion.model import ModelParams

        return ModelParams({"w": [[value]]})

    def test_first_step_magnitude_and_sign(self):
        cfg = TrainConfig()
        params = self._scalar_param(1.0)
        params["w"].value.grad[...] = 5.0
        state = OptimizerState.for_params(params)
        adam_step(params, state, lr=1e-3, cfg=cfg)
        delta = params["w"].value.data[0, 0] - 1.0
        assert delta < 0
        assert abs(abs(delta) - 1e-3) < 1e-6

    def test_zero_grad_from_fresh_state_leaves_param(self):
        cfg = TrainConfig()
        params = self._scalar_param(2.0)
        state = OptimizerState.for_params(params)
        adam_step(params, state, lr=1e-3, cfg=cfg)
        np.testing.assert_array_equal(params["w"].value.data, [[2.0]])

    def test_zero_grad_decays_existing_moments(self):
        cfg = TrainConfig()
        params = self._scalar_param(2.0)
        params["w"].value.grad[...] = 4.0
        state = OptimizerState.for_params(params)
        adam_step(params, state, lr=1e-3, cfg=cfg)
        m_before = params.views(state.first)["w"].copy()
        v_before = params.views(state.second)["w"].copy()
        params.zero_grad()
        adam_step(params, state, lr=1e-3, cfg=cfg)
        assert abs(params.views(state.first)["w"][0, 0]) < abs(m_before[0, 0])
        assert params.views(state.second)["w"][0, 0] < v_before[0, 0]

    def test_quadratic_descent(self):
        cfg = TrainConfig()
        params = self._scalar_param(1.0)
        state = OptimizerState.for_params(params)
        values = []
        for _ in range(3):
            params.zero_grad()
            loss = T.sum_all(params["w"].value * params["w"].value)
            values.append(loss.item())
            T.backward(loss)
            adam_step(params, state, lr=0.05, cfg=cfg)
        values.append(T.sum_all(params["w"].value * params["w"].value).item())
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_step_is_the_per_parameter_loop(self, dtype):
        """Five steps on the flat buffers give the weights and moments of a
        per-parameter loop, bit for bit."""
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPSILON
        params = init_params(ModelConfig(hidden_dim=8, interaction_degree=2, seed=3)).astype(dtype)
        state = OptimizerState.for_params(params)
        weights = {p.name: p.value.data.copy() for p in params}
        first = {name: np.zeros_like(w) for name, w in weights.items()}
        second = {name: np.zeros_like(w) for name, w in weights.items()}
        rng = np.random.default_rng(17)
        for t in range(1, 6):
            lr = 1e-3 * t
            params.zero_grad()
            for p in params:
                p.value.grad[...] = rng.normal(scale=10.0 ** -t, size=p.grad.shape)
            adam_step(params, state, lr, TrainConfig())
            for p in params:
                g, m, v = p.grad, first[p.name], second[p.name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1 ** t)
                v_hat = v / (1.0 - b2 ** t)
                weights[p.name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for p in params:
                assert p.value.data.dtype == dtype
                assert p.value.data.tobytes() == weights[p.name].tobytes(), (t, p.name)
                assert params.views(state.first)[p.name].tobytes() == first[p.name].tobytes()
                assert params.views(state.second)[p.name].tobytes() == second[p.name].tobytes()


class TestLrSchedule:
    def test_epoch_zero(self):
        assert lr_at(0, TrainConfig()) == pytest.approx(7e-4)

    def test_epoch_nine_unchanged(self):
        assert lr_at(9, TrainConfig()) == pytest.approx(7e-4)

    def test_epoch_ten_decayed(self):
        assert lr_at(10, TrainConfig()) == pytest.approx(6.65e-4)

    def test_staircase(self):
        cfg = TrainConfig()
        assert lr_at(25, cfg) == pytest.approx(7e-4 * 0.95 ** 2)


class TestTrainLoop:
    CONFIG = ModelConfig(hidden_dim=4, interaction_degree=1, cutoff_exponent=2, t_max=8, seed=1)
    TCFG = TrainConfig(epochs=80, batch_size=128, lr0=1e-2, seed=1)

    def _data(self):
        rng = np.random.default_rng(99)
        samples = synthetic_scaled_samples(rng, 260)
        return samples[:200], samples[200:]

    def test_loss_drops_by_half(self):
        train_s, val_s = self._data()
        result = train(self.CONFIG, train_s, val_s, self.TCFG)
        assert result.history[-1].train_aql <= 0.5 * result.history[0].train_aql

    def test_seed_determinism(self):
        train_s, val_s = self._data()
        cfg = TrainConfig(epochs=5, batch_size=128, lr0=1e-2, seed=7)
        r1 = train(self.CONFIG, train_s, val_s, cfg)
        r2 = train(self.CONFIG, train_s, val_s, cfg)
        assert [(h.train_aql, h.val_aql) for h in r1.history] == [
            (h.train_aql, h.val_aql) for h in r2.history
        ]
        for name in r1.params.names:
            np.testing.assert_array_equal(r1.params[name].value.data, r2.params[name].value.data)

    def test_best_epoch_is_argmin(self):
        train_s, val_s = self._data()
        cfg = TrainConfig(epochs=12, batch_size=128, lr0=1e-2, seed=3)
        result = train(self.CONFIG, train_s, val_s, cfg)
        vals = [h.val_aql for h in result.history]
        assert result.best_epoch == int(np.argmin(vals))
        assert result.best_val_aql <= result.history[-1].val_aql

    def test_returned_params_are_best_epoch_snapshot(self):
        train_s, val_s = self._data()
        cfg = TrainConfig(epochs=10, batch_size=128, lr0=1e-2, seed=3)
        result = train(self.CONFIG, train_s, val_s, cfg)
        batch = encode_samples(val_s, self.CONFIG)
        pred = predict_batch(result.params, self.CONFIG, batch.buy, batch.sell, batch.mask_buy, batch.mask_sell)
        assert aql(batch.labels, pred.data, self.CONFIG.quantiles) == pytest.approx(result.best_val_aql)

    def test_golden_history(self, monkeypatch):
        """Pinned per-epoch losses, so that a change in the shuffle or the
        schedule shows: four batches an epoch, a decay step every 2 epochs.
        Training runs in float32; 1e-6 is about 100 float32 ulps of a 0.1
        loss, and a changed shuffle moves these losses by far more."""
        monkeypatch.setattr(training, "DECAY_EVERY_EPOCHS", 2)
        train_s, val_s = self._data()
        cfg = TrainConfig(epochs=4, batch_size=64, lr0=1e-2, decay=0.5, seed=7)
        result = train(self.CONFIG, train_s, val_s, cfg)
        golden = [(0.11934949457645416, 0.10576306237645136),
                  (0.10427565157413482, 0.10137323565559374),
                  (0.09860607832670212, 0.09760301698597945),
                  (0.09309707283973694, 0.09159222516685812)]
        np.testing.assert_allclose([(h.train_aql, h.val_aql) for h in result.history], golden,
                                   rtol=0, atol=1e-6)
        assert result.best_epoch == 3

    def test_early_best_epoch_weights_are_restored(self):
        # validation labels of the opposite sign: fitting the training split
        # makes the validation loss worse, so the best epoch is not the last
        train_s, val_s = self._data()
        val_s = [replace(s, label=-s.label) for s in val_s]
        cfg = TrainConfig(epochs=6, batch_size=128, lr0=1e-2, seed=3)
        result = train(self.CONFIG, train_s, val_s, cfg)
        assert result.best_epoch < cfg.epochs - 1
        batch = encode_samples(val_s, self.CONFIG).astype(COMPUTE_DTYPE)     # as train scores it
        pred = score_batch(result.params, self.CONFIG, batch)
        assert aql(batch.labels, pred, self.CONFIG.quantiles) == result.best_val_aql

    # the benchmark's two shapes: (hidden_dim, degree, cutoff_exponent, t_max, batch_size)
    @pytest.mark.parametrize("shape", [(8, 1, 4, 32, 512), (64, 2, 6, 128, 128)],
                             ids=["train_small", "train_wide"])
    def test_training_step_computes_in_float32(self, monkeypatch, shape):
        """No op of a training step or of its validation pass, and no
        gradient, is float64; nor are the returned weights."""
        hidden_dim, degree, alpha, t_max, batch_size = shape
        rng = np.random.default_rng(23)
        # full sides and short ones, so a batch takes the mask multiply too
        samples = [s for full, short in zip(synthetic_scaled_samples(rng, batch_size, t_max),
                                            synthetic_scaled_samples(rng, batch_size, 4))
                   for s in (full, short)]
        config = ModelConfig(hidden_dim=hidden_dim, interaction_degree=degree,
                             cutoff_exponent=alpha, t_max=t_max, seed=5)
        dtypes = set()
        node, accumulate = T._node, T._accumulate

        def recorded_node(data, parents, backward_fn):
            dtypes.add(data.dtype)
            return node(data, parents, backward_fn)

        def recorded_accumulate(sink, grad):
            dtypes.add(grad.dtype)
            accumulate(sink, grad)

        monkeypatch.setattr(T, "_node", recorded_node)
        monkeypatch.setattr(T, "_accumulate", recorded_accumulate)
        result = train(config, samples[:batch_size], samples[batch_size:batch_size + 16],
                       TrainConfig(epochs=1, batch_size=batch_size, seed=5))
        assert dtypes == {np.dtype(np.float32)}
        assert {p.value.data.dtype for p in result.params} == {np.dtype(np.float32)}

    def test_empty_split_rejected(self):
        train_s, val_s = self._data()
        with pytest.raises(ValueError):
            train(self.CONFIG, [], val_s, self.TCFG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        train_s, val_s = self._data()
        cfg = TrainConfig(epochs=5, batch_size=128, lr0=1e160, seed=1)
        with pytest.raises(DivergenceError):
            train(self.CONFIG, train_s, val_s, cfg)


def mixed_samples(rng, n, t_max):
    """Scaled samples, every sixth with full sides and the rest with 4-row
    sides, so that row slices trim different numbers of dead leading rows."""
    full = synthetic_scaled_samples(rng, n, t_max)
    short = synthetic_scaled_samples(rng, n, 4)
    return [full[i] if i % 6 == 0 else short[i] for i in range(n)]


# the benchmark's two shapes: (hidden_dim, degree, cutoff_exponent, t_max)
BENCH_SHAPES = {"train_small": (8, 1, 4, 32), "train_wide": (64, 2, 6, 128)}


def shape_config(name, **kw):
    hidden_dim, degree, alpha, t_max = BENCH_SHAPES[name]
    return ModelConfig(hidden_dim=hidden_dim, interaction_degree=degree, cutoff_exponent=alpha,
                       t_max=t_max, seed=5, **kw)


class TestRowSlices:
    @pytest.mark.parametrize("mask_variant", ["dual", "none", "random", "reverse"])
    def test_budget_splits_only_the_wide_batch(self, mask_variant):
        assert slice_rows(shape_config("train_small", mask_variant=mask_variant)) >= 512
        assert slice_rows(shape_config("train_wide", mask_variant=mask_variant)) < 128

    def test_one_slice_is_one_pass(self, monkeypatch):
        """At the acceptance shape a 512-row batch is one slice, which runs
        as a plain pass over the batch: weights and history are bitwise
        those of training with no slicing."""
        config = shape_config("train_small")
        rng = np.random.default_rng(29)
        samples = mixed_samples(rng, 700, config.t_max)
        cfg = TrainConfig(epochs=2, batch_size=512, seed=5)
        sliced = train(config, samples[:600], samples[600:], cfg)
        monkeypatch.setattr(training, "slice_rows", lambda config: None)
        whole = train(config, samples[:600], samples[600:], cfg)
        assert [(h.train_aql, h.val_aql) for h in sliced.history] == \
            [(h.train_aql, h.val_aql) for h in whole.history]
        for p in whole.params:
            assert sliced.params[p.name].value.data.tobytes() == p.value.data.tobytes(), p.name

    @pytest.mark.parametrize("shape, n, size", [("train_small", 96, 7), ("train_wide", 24, 5)])
    def test_sliced_gradient_matches_one_pass(self, monkeypatch, shape, n, size):
        """In float64, the gradient that reaches Adam from uneven row slices
        is the one-pass gradient of the minibatch's mean loss to 1e-12, and
        so is the epoch's training loss."""
        config = shape_config(shape)
        b = encode_samples(mixed_samples(np.random.default_rng(31), n, config.t_max), config)
        params = init_params(config)
        leads = set()

        def batch_loss(rows, rng):
            leads.add(M._dead_lead(b.mask_buy[rows], b.mask_sell[rows]))
            pred = predict_batch(params, config, b.buy[rows], b.sell[rows],
                                 b.mask_buy[rows], b.mask_sell[rows])
            return aql_loss(pred, T.constant(b.labels[rows]), config.quantiles)

        def first_gradient(slice_size):
            steps = []
            monkeypatch.setattr(training, "adam_step", lambda params, *_: steps.append(
                {p.name: p.grad.copy() for p in params}))
            result = training._fit(params, n, batch_loss, lambda: 0.0,
                                   TrainConfig(epochs=1, batch_size=n), 0, slice_size)
            assert len(steps) == 1
            return steps[0], result.history[0].train_aql

        one, loss_one = first_gradient(None)
        leads.clear()
        sliced, loss_sliced = first_gradient(size)
        assert len(leads) > 1       # the slices trim different numbers of dead leading rows
        for name, g in one.items():
            np.testing.assert_allclose(sliced[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max(),
                                       err_msg=name)
        assert loss_sliced == pytest.approx(loss_one, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n_slices", [2, 4])
    def test_slices_peak_like_one_slice(self, n_slices):
        """tracemalloc's peak over ``_fit`` on one minibatch of 27-row
        slices at the train_wide shape, in float32, is within 5% of a
        one-slice minibatch's: a slice's graph is freed by its own backward
        (1.59x while it lived on into the next slice's forward)."""
        config = shape_config("train_wide")
        samples = synthetic_scaled_samples(np.random.default_rng(37), 27 * n_slices, config.t_max)
        b = encode_samples(samples, config).astype(COMPUTE_DTYPE)

        def fit_peak(n):
            params = init_params(config).astype(COMPUTE_DTYPE)

            def batch_loss(rows, rng):
                pred = predict_batch(params, config, b.buy[rows], b.sell[rows],
                                     b.mask_buy[rows], b.mask_sell[rows])
                return aql_loss(pred, T.constant(b.labels[rows]), config.quantiles)

            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                training._fit(params, n, batch_loss, lambda: 0.0,
                              TrainConfig(epochs=1, batch_size=n), 0, 27)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one, many = fit_peak(27), fit_peak(27 * n_slices)
        assert many <= 1.05 * one, f"{many / 1e6:.2f} MB vs {one / 1e6:.2f} MB for one slice"

    @pytest.mark.slow
    def test_paper_shape_peak_does_not_follow_the_batch(self, tmp_path):
        """``train`` at the paper-like shape with 512-row batches, one epoch
        on a 31-day market, in its own process: its peak RSS stays below
        150 MB (318 MB when a batch ran as one pass; batch 128 peaks near
        74 MB)."""
        (tmp_path / "synth.cfg").write_text("seed = 31\nn_days = 31\narrival_rate_per_min = 0.8\n")
        (tmp_path / "run.cfg").write_text(
            "seed = 31\nhidden_dim = 64\ninteraction_degree = 2\ncutoff_exponent = 6\n"
            "t_max = 128\nbatch_size = 512\nepochs = 1\n")
        assert dispatch(["synth", "--config", str(tmp_path / "synth.cfg"),
                         "--out", str(tmp_path / "market")]) == 0
        src = Path(training.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "ORDERFUSION_LOG": "error",
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        # A child's ru_maxrss counts the memory of the process that started
        # it (Linux folds it in at exec), so a small interpreter starts train.
        launcher = ("import os, subprocess, sys; proc = subprocess.Popen(sys.argv[1:]); "
                    "_, status, usage = os.wait4(proc.pid, 0); "
                    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
        out = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-m", "orderfusion.cli",
                              "train", "--config", str(tmp_path / "run.cfg"),
                              "--data", str(tmp_path / "market" / "trades.csv"),
                              "--out", str(tmp_path / "train")],
                             env=env, capture_output=True, text=True, timeout=600, check=True)
        code, maxrss_kb = map(int, out.stdout.split())
        assert code == 0, out.stderr
        assert maxrss_kb / 1024 < 150, f"peak RSS {maxrss_kb / 1024:.1f} MB"


class TestRollingFolds:
    START = datetime(2022, 1, 1, tzinfo=UTC)

    def test_fold_one_boundaries(self):
        folds = rolling_folds(self.START)
        f1 = folds[0]
        assert f1.train_range == (self.START, datetime(2023, 9, 1, tzinfo=UTC))
        assert f1.val_range == (datetime(2023, 9, 1, tzinfo=UTC), datetime(2024, 1, 1, tzinfo=UTC))
        assert f1.test_range == (datetime(2024, 1, 1, tzinfo=UTC), datetime(2024, 5, 1, tzinfo=UTC))

    def test_terminus(self):
        folds = rolling_folds(self.START)
        assert folds[-1].test_range[1] == datetime(2025, 1, 1, tzinfo=UTC)

    def test_test_windows_tile_twelve_months(self):
        folds = rolling_folds(self.START)
        for a, b in zip(folds, folds[1:]):
            assert a.test_range[1] == b.test_range[0]
        first, last = folds[0].test_range[0], folds[-1].test_range[1]
        assert add_months(first, 12) == last

    def test_ordering_invariant(self):
        for f in rolling_folds(self.START, RollingSpec(train_months=6, n_folds=4)):
            assert f.train_range[1] == f.val_range[0]
            assert f.val_range[1] == f.test_range[0]

    def test_split_keeps_test_records_out_of_training(self):
        rng = np.random.default_rng(71)
        samples = synthetic_scaled_samples(rng, 50)
        for i, s in enumerate(samples):
            s.delivery_start = self.START.replace(year=2022 + i % 3, month=1 + i % 12)
        fold = rolling_folds(self.START)[0]
        train_s, val_s, test_s = fold.split(samples)
        assert len(train_s) + len(val_s) + len(test_s) <= len(samples)
        for s in train_s:
            assert s.delivery_start < fold.train_range[1]
        for s in test_s:
            assert s.delivery_start >= fold.test_range[0]
        train_ids = {id(s) for s in train_s}
        assert not train_ids & {id(s) for s in test_s}


class TestGridSearch:
    def test_singleton_space(self):
        rng = np.random.default_rng(101)
        samples = synthetic_scaled_samples(rng, 80)
        base = ModelConfig(hidden_dim=4, interaction_degree=1, cutoff_exponent=2, t_max=8, seed=2)
        cfg = TrainConfig(epochs=2, batch_size=64, lr0=1e-2, seed=2)
        best, table = grid_search(base, cfg, {"hidden_dim": [4]}, [(samples[:60], samples[60:])])
        assert len(table) == 1
        assert best[0].overrides == {"hidden_dim": 4}

    def test_table_covers_space_per_fold(self):
        rng = np.random.default_rng(103)
        samples = synthetic_scaled_samples(rng, 80)
        base = ModelConfig(hidden_dim=4, interaction_degree=1, cutoff_exponent=2, t_max=8, seed=2)
        cfg = TrainConfig(epochs=1, batch_size=64, lr0=1e-2, seed=2)
        space = {"hidden_dim": [2, 4], "cutoff_exponent": [0, 2]}
        folds = [(samples[:60], samples[60:]), (samples[:60], samples[60:])]
        best, table = grid_search(base, cfg, space, folds)
        assert len(table) == 8
        assert set(best) == {0, 1}

    def test_selects_cutoff_that_sees_the_signal(self):
        rng = np.random.default_rng(107)
        samples = synthetic_scaled_samples(rng, 240, noise=0.02)
        base = ModelConfig(hidden_dim=4, interaction_degree=1, cutoff_exponent=2, t_max=8, seed=5)
        cfg = TrainConfig(epochs=60, batch_size=128, lr0=1e-2, seed=5)
        best, table = grid_search(
            base, cfg, {"cutoff_exponent": [0, 2]}, [(samples[:180], samples[180:])])
        assert best[0].overrides == {"cutoff_exponent": 2}

    def test_budget_subsets_deterministically(self):
        rng = np.random.default_rng(109)
        samples = synthetic_scaled_samples(rng, 60)
        base = ModelConfig(hidden_dim=4, interaction_degree=1, cutoff_exponent=2, t_max=8, seed=2)
        cfg = TrainConfig(epochs=1, batch_size=64, lr0=1e-2, seed=2)
        space = {"cutoff_exponent": [0, 1, 2, 3]}
        _, table = grid_search(base, cfg, space, [(samples[:40], samples[40:])], budget=2)
        assert len(table) == 2

    def test_process_pool_matches_serial(self):
        rng = np.random.default_rng(113)
        samples = synthetic_scaled_samples(rng, 60)
        base = ModelConfig(hidden_dim=4, interaction_degree=1, cutoff_exponent=2, t_max=8, seed=2)
        cfg = TrainConfig(epochs=2, batch_size=32, lr0=1e-2, seed=2)
        space = {"hidden_dim": [2, 4], "cutoff_exponent": [1, 2]}
        folds = [(samples[:40], samples[40:])]
        assert grid_search(base, cfg, space, folds, jobs=2) == grid_search(base, cfg, space, folds)
