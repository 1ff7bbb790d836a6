import io
import json
import math
import weakref
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from orderfusion import model as M
from orderfusion import tensor as T
from orderfusion.market import Sample
from orderfusion.model import (
    SCORE_CHUNK_ROWS,
    ModelConfig,
    aggregate_and_pool,
    cross_attention_fuse,
    encode_samples,
    fusion_stack,
    hierarchical_head,
    init_params,
    input_project,
    load_checkpoint,
    param_count,
    predict_batch,
    save_checkpoint,
    score_batch,
)
from orderfusion.market import RobustScaler
from orderfusion.training import aql_loss

UTC = timezone.utc


def make_sample(rng, n_buy, n_sell, delivery=None, lead_minutes=60.0):
    """A synthetic already-scaled sample; time deltas descend toward the bottom."""

    def side(n):
        if n == 0:
            return np.zeros((0, 3))
        deltas = np.sort(rng.uniform(lead_minutes + 1, lead_minutes + 200, size=n))[::-1]
        return np.column_stack([rng.normal(size=n), rng.normal(size=n), deltas / 100.0])

    return Sample(
        delivery_start=delivery or datetime(2024, 1, 1, 12, tzinfo=UTC),
        buy_matrix=side(n_buy),
        sell_matrix=side(n_sell),
        label=float(rng.normal()),
        forecast_time=datetime(2024, 1, 1, 11, tzinfo=UTC),
    )


def small_config(**kw):
    defaults = dict(hidden_dim=4, interaction_degree=1, cutoff_exponent=2, t_max=8, seed=3)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestInputProject:
    def test_zero_mask_row_zeroes_output(self):
        rng = np.random.default_rng(1)
        x = T.constant(rng.normal(size=(1, 4, 3)))
        w = T.constant(rng.normal(size=(3, 5)))
        mask = T.constant(np.array([[1.0], [0.0], [1.0], [0.0]])[None])
        out = input_project(x, w, None, mask)
        assert (out.data[0, 1] == 0).all() and (out.data[0, 3] == 0).all()
        x2 = x.data.copy()
        x2[0, 1] = 999.0
        out2 = input_project(T.constant(x2), w, None, mask)
        np.testing.assert_array_equal(out.data, out2.data)

    def test_identity_projection_is_elementwise_swish(self):
        x = T.constant(np.array([[[1.0, 2.0, 3.0]]]))
        out = input_project(x, T.constant(np.eye(3)), None, T.constant(np.ones((1, 1, 1))))
        expected = np.array([v / (1 + math.exp(-v)) for v in (1.0, 2.0, 3.0)])
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-15)

    def test_random_case_matches_hand_computation(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 3))
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=(1, 4))
        mask = (rng.random(size=(2, 3, 1)) > 0.3).astype(float)
        pre = x @ w + b
        sig = 1.0 / (1.0 + np.exp(-pre))
        expected = pre * sig * mask
        out = input_project(T.constant(x), T.constant(w), T.constant(b), T.constant(mask))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestCrossAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(2)
        q_side = T.constant(rng.normal(size=(1, 1, 3)))
        o_side = T.constant(rng.normal(size=(1, 1, 3)))
        wq, wk, wv = (T.constant(rng.normal(size=(3, 3))) for _ in range(3))
        out = cross_attention_fuse(q_side, o_side, wq, wk, wv, T.constant(np.ones((1, 1, 1))))
        np.testing.assert_allclose(out.data, o_side.data @ wv.data, atol=1e-12)

    def test_zero_value_side_gives_zero(self):
        rng = np.random.default_rng(3)
        q_side = T.constant(rng.normal(size=(1, 4, 3)))
        o_side = T.constant(np.zeros((1, 4, 3)))
        wq, wk, wv = (T.constant(rng.normal(size=(3, 3))) for _ in range(3))
        out = cross_attention_fuse(q_side, o_side, wq, wk, wv, T.constant(np.ones((1, 4, 1))))
        assert (out.data == 0).all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        t_len, dim = 4, 2
        q_side = rng.normal(size=(1, t_len, dim))
        o_side = rng.normal(size=(1, t_len, dim))
        wq, wk, wv = (rng.normal(size=(dim, dim)) for _ in range(3))
        mask = (rng.random(size=(1, t_len, 1)) > 0.25).astype(float)

        q = q_side[0] @ wq
        k = o_side[0] @ wk
        v = o_side[0] @ wv
        expected = np.zeros((t_len, dim))
        for i in range(t_len):
            logits = [sum(q[i, f] * k[j, f] for f in range(dim)) / math.sqrt(dim) for j in range(t_len)]
            m = max(logits)
            weights = [math.exp(l - m) for l in logits]
            total = sum(weights)
            for j in range(t_len):
                for f in range(dim):
                    expected[i, f] += weights[j] / total * v[j, f]
            expected[i] *= mask[0, i, 0]

        out = cross_attention_fuse(
            T.constant(q_side), T.constant(o_side),
            T.constant(wq), T.constant(wk), T.constant(wv), T.constant(mask))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-10)


class TestFusionStack:
    def _setup(self, rng, degrees, t_len=4, dim=3):
        config = small_config(hidden_dim=dim, interaction_degree=degrees, cutoff_exponent=2, t_max=t_len)
        params = init_params(config)
        buy = T.constant(rng.normal(size=(1, t_len, dim)))
        sell = T.constant(rng.normal(size=(1, t_len, dim)))
        mb = T.constant(np.ones((1, t_len, 1)))
        ms = T.constant(np.ones((1, t_len, 1)))
        return config, params, buy, sell, mb, ms

    def test_single_degree_is_one_fuse_per_side(self):
        rng = np.random.default_rng(11)
        config, params, buy, sell, mb, ms = self._setup(rng, 1)
        pairs = fusion_stack(buy, sell, params, mb, ms, 1)
        assert len(pairs) == 1
        direct_buy = cross_attention_fuse(
            buy, sell, params["fuse1.buy.wq"].value,
            params["fuse1.sell.wk"].value, params["fuse1.sell.wv"].value, mb)
        np.testing.assert_array_equal(pairs[0][0].data, direct_buy.data)

    def test_empty_sell_side_zeroes_everything(self):
        rng = np.random.default_rng(13)
        config, params, buy, _, mb, _ = self._setup(rng, 3)
        sell = T.constant(np.zeros((1, 4, 3)))
        ms = T.constant(np.zeros((1, 4, 1)))
        pairs = fusion_stack(buy, sell, params, mb, ms, 3)
        for cb, cs in pairs:
            assert (cb.data == 0).all()
            assert (cs.data == 0).all()

    def test_two_degrees_match_manual_composition(self):
        rng = np.random.default_rng(17)
        config, params, buy, sell, mb, ms = self._setup(rng, 2)
        pairs = fusion_stack(buy, sell, params, mb, ms, 2)

        cb1 = cross_attention_fuse(buy, sell, params["fuse1.buy.wq"].value,
                                   params["fuse1.sell.wk"].value, params["fuse1.sell.wv"].value, mb)
        cs1 = cross_attention_fuse(sell, buy, params["fuse1.sell.wq"].value,
                                   params["fuse1.buy.wk"].value, params["fuse1.buy.wv"].value, ms)
        cb2 = cross_attention_fuse(cb1, cs1, params["fuse2.buy.wq"].value,
                                   params["fuse2.sell.wk"].value, params["fuse2.sell.wv"].value, mb)
        cs2 = cross_attention_fuse(cs1, cb1, params["fuse2.sell.wq"].value,
                                   params["fuse2.buy.wk"].value, params["fuse2.buy.wv"].value, ms)
        np.testing.assert_allclose(pairs[1][0].data, cb2.data, atol=1e-10)
        np.testing.assert_allclose(pairs[1][1].data, cs2.data, atol=1e-10)


class TestAggregateAndPool:
    def test_equal_sides_double(self):
        rng = np.random.default_rng(19)
        c = T.constant(rng.normal(size=(1, 5, 3)))
        pooled = aggregate_and_pool([(c, c)], "residual", "avg")
        np.testing.assert_allclose(pooled.data, 2 * c.data[0].mean(axis=0, keepdims=True), atol=1e-12)

    def test_all_zero(self):
        z = T.constant(np.zeros((1, 4, 3)))
        assert (aggregate_and_pool([(z, z)], "residual", "avg").data == 0).all()
        assert (aggregate_and_pool([(z, z)], "residual", "max").data == 0).all()

    def test_avg_equals_sum_over_t_max(self):
        rng = np.random.default_rng(23)
        cb = T.constant(rng.normal(size=(2, 6, 3)))
        cs = T.constant(rng.normal(size=(2, 6, 3)))
        pooled = aggregate_and_pool([(cb, cs)], "residual", "avg")
        expected = (cb.data + cs.data).sum(axis=1) / 6
        np.testing.assert_allclose(pooled.data, expected, atol=1e-12)

    def test_no_residual_keeps_last_degree_only(self):
        rng = np.random.default_rng(29)
        pairs = [
            (T.constant(rng.normal(size=(1, 4, 2))), T.constant(rng.normal(size=(1, 4, 2))))
            for _ in range(3)
        ]
        pooled = aggregate_and_pool(pairs, "no_residual", "avg")
        expected = (pairs[-1][0].data + pairs[-1][1].data).mean(axis=1)
        np.testing.assert_allclose(pooled.data, expected, atol=1e-12)

    def test_concat_width_doubles(self):
        rng = np.random.default_rng(31)
        pairs = [(T.constant(rng.normal(size=(1, 4, 2))), T.constant(rng.normal(size=(1, 4, 2))))]
        assert aggregate_and_pool(pairs, "concat", "avg").shape == (1, 4)


class TestHierarchicalHead:
    def _constant_residual_params(self, config, biases):
        params = init_params(config)
        for tau, b in biases.items():
            name = f"head.q{int(round(tau * 100)):02d}"
            params[f"{name}.w"].value.data[...] = 0.0
            params[f"{name}.b"].value.data[...] = b
        return params

    def test_upper_chain(self):
        config = small_config()
        params = self._constant_residual_params(
            config, {0.50: 10.0, 0.55: 1.0, 0.75: 2.0, 0.90: 3.0, 0.45: 0.0, 0.25: 0.0, 0.10: 0.0})
        out = hierarchical_head(T.constant(np.zeros((1, 4))), params, "hierarchical", config.quantiles)
        np.testing.assert_allclose(out.data[0, 4:], [11.0, 13.0, 16.0])
        np.testing.assert_allclose(out.data[0, 3], 10.0)

    def test_lower_chain(self):
        config = small_config()
        params = self._constant_residual_params(
            config, {0.50: 10.0, 0.55: 0.0, 0.75: 0.0, 0.90: 0.0, 0.45: 1.0, 0.25: 2.0, 0.10: 3.0})
        out = hierarchical_head(T.constant(np.zeros((1, 4))), params, "hierarchical", config.quantiles)
        np.testing.assert_allclose(out.data[0, :3][::-1], [9.0, 7.0, 4.0])

    def test_never_crosses_on_random_inputs(self):
        rng = np.random.default_rng(37)
        config = small_config(seed=int(rng.integers(1 << 30)))
        params = init_params(config)
        for p in params:
            p.value.data[...] = rng.normal(scale=5.0, size=p.value.data.shape)
        pooled = T.constant(rng.normal(scale=10.0, size=(1000, 4)))
        out = hierarchical_head(pooled, params, "hierarchical", config.quantiles)
        assert (np.diff(out.data, axis=1) >= 0).all()

    def test_single_head_width(self):
        config = small_config(head_variant="single", head_tau=0.25)
        params = init_params(config)
        out = hierarchical_head(T.constant(np.zeros((3, 4))), params, "single", config.quantiles, 0.25)
        assert out.shape == (3, 1)

    @pytest.mark.parametrize("quantiles", [(0.50, 0.75, 0.90), (0.10, 0.25, 0.50), (0.50,)])
    def test_median_at_quantile_set_boundary(self, quantiles):
        rng = np.random.default_rng(67)
        config = small_config(quantiles=quantiles)
        params = init_params(config)
        for p in params:
            p.value.data[...] = rng.normal(scale=4.0, size=p.value.data.shape)
        out = hierarchical_head(T.constant(rng.normal(size=(200, 4))), params,
                                "hierarchical", quantiles)
        assert out.shape == (200, len(quantiles))
        assert (np.diff(out.data, axis=1) >= 0).all()


class TestForward:
    def test_deterministic(self):
        rng = np.random.default_rng(43)
        config = small_config()
        params = init_params(config)
        b = encode_samples([make_sample(rng, 5, 3)], config)
        f1 = predict_batch(params, config, b.buy, b.sell, b.mask_buy, b.mask_sell)
        f2 = predict_batch(params, config, b.buy, b.sell, b.mask_buy, b.mask_sell)
        assert (f1.data == f2.data).all()

    def test_sentinel_mutation_bit_identical(self):
        rng = np.random.default_rng(47)
        config = small_config()
        params = init_params(config)
        samples = [make_sample(rng, 3, 2)]
        batch = encode_samples(samples, config)
        base = predict_batch(params, config, batch.buy, batch.sell, batch.mask_buy, batch.mask_sell)
        mutated = batch.buy.copy()
        mutated[0, 0, :] = rng.normal(size=3) * 50  # a sentinel row
        out = predict_batch(params, config, mutated, batch.sell, batch.mask_buy, batch.mask_sell)
        assert (base.data == out.data).all()

    def test_permuting_retained_rows_changes_little(self):
        rng = np.random.default_rng(53)
        config = small_config(cutoff_exponent=2, t_max=8)  # retains 4 trailing rows
        params = init_params(config)
        sample = make_sample(rng, 4, 4)
        batch = encode_samples([sample], config)
        base = predict_batch(params, config, batch.buy, batch.sell, batch.mask_buy, batch.mask_sell)
        buy = batch.buy.copy()
        sell = batch.sell.copy()
        perm = rng.permutation(4)
        buy[0, 4:] = buy[0, 4:][perm]
        sell[0, 4:] = sell[0, 4:][rng.permutation(4)]
        out = predict_batch(params, config, buy, sell, batch.mask_buy, batch.mask_sell)
        np.testing.assert_allclose(out.data, base.data, atol=1e-9)

    def test_no_fusion_path(self):
        rng = np.random.default_rng(59)
        config = small_config(fusion_variant="no_fusion")
        params = init_params(config)
        assert params.n_scalars() == 7 * 7
        b = encode_samples([make_sample(rng, 3, 3)], config)
        out = predict_batch(params, config, b.buy, b.sell, b.mask_buy, b.mask_sell).data[0]
        assert out.shape == (7,)
        assert np.all(np.diff(out) >= 0)


def _untrimmed(params, config, buy, sell, mask_buy, mask_sell):
    """The model composed from its blocks on the full arrays, lead 0."""
    tb, ts, mb, ms = (T.constant(a) for a in (buy, sell, mask_buy, mask_sell))
    if config.fusion_variant == "no_fusion":
        combined = T.concat_cols(tb * mb, ts * ms)
        pooled = T.mean_rows(combined) if config.pooling_variant == "avg" else T.max_rows(combined)
    else:
        proj_b = input_project(tb, params["proj.buy.w"].value, params["proj.buy.b"].value, mb)
        proj_s = input_project(ts, params["proj.sell.w"].value, params["proj.sell.b"].value, ms)
        pairs = fusion_stack(proj_b, proj_s, params, mb, ms, config.interaction_degree, lead=0)
        pooled = aggregate_and_pool(pairs, config.aggregation_variant, config.pooling_variant)
    return hierarchical_head(pooled, params, config.head_variant, config.quantiles, config.head_tau)


def _outputs_and_grads(build, params, labels, quantiles):
    params.zero_grad()
    out = build()
    T.backward(aql_loss(out, T.constant(labels), quantiles))
    return out.data.copy(), {p.name: p.grad.copy() for p in params}


class TestDeadRowTrimming:
    """``predict_batch`` skips the leading rows every sample masks out."""

    def _case(self, n_max=10, hidden_dim=5, **kw):
        config = small_config(hidden_dim=hidden_dim, interaction_degree=2, cutoff_exponent=2, t_max=16, **kw)
        rng = np.random.default_rng(71)
        samples = [make_sample(rng, int(rng.integers(1, n_max + 1)), int(rng.integers(1, n_max + 1)))
                   for _ in range(6)]
        params = init_params(config)
        for p in params:
            p.value.data[...] = rng.normal(scale=0.8, size=p.value.data.shape)
        return config, params, encode_samples(samples, config)

    @pytest.mark.parametrize("mask_variant", ["dual", "none", "random", "reverse"])
    @pytest.mark.parametrize("pooling_variant", ["avg", "max"])
    @pytest.mark.parametrize("aggregation_variant", ["residual", "concat"])
    @pytest.mark.parametrize("fusion_variant", ["fusion", "no_fusion"])
    def test_matches_untrimmed_composition(self, mask_variant, pooling_variant,
                                           aggregation_variant, fusion_variant):
        config, params, b = self._case(
            mask_variant=mask_variant, pooling_variant=pooling_variant,
            aggregation_variant=aggregation_variant, fusion_variant=fusion_variant)
        arrays = (b.buy, b.sell, b.mask_buy, b.mask_sell)
        out, grads = _outputs_and_grads(lambda: predict_batch(params, config, *arrays),
                                        params, b.labels, config.quantiles)
        ref, ref_grads = _outputs_and_grads(lambda: _untrimmed(params, config, *arrays),
                                            params, b.labels, config.quantiles)
        np.testing.assert_allclose(out, ref, atol=1e-12, rtol=0)
        for name, g in ref_grads.items():
            np.testing.assert_allclose(grads[name], g, atol=1e-12, rtol=0, err_msg=name)

    @pytest.mark.parametrize("mask_variant", ["dual", "none", "random"])
    @pytest.mark.parametrize("pooling_variant", ["avg", "max"])
    def test_bitwise_when_no_leading_row_is_dead(self, mask_variant, pooling_variant):
        # 2**cutoff_exponent == t_max and one sample fills every row, so no
        # leading row is dead under any of these variants
        config = small_config(hidden_dim=5, interaction_degree=2, cutoff_exponent=3, t_max=8,
                              mask_variant=mask_variant, pooling_variant=pooling_variant)
        rng = np.random.default_rng(73)
        samples = [make_sample(rng, 8, 3), make_sample(rng, 2, 5)]
        params = init_params(config)
        b = encode_samples(samples, config)
        arrays = (b.buy, b.sell, b.mask_buy, b.mask_sell)
        out, grads = _outputs_and_grads(lambda: predict_batch(params, config, *arrays),
                                        params, b.labels, config.quantiles)
        ref, ref_grads = _outputs_and_grads(lambda: _untrimmed(params, config, *arrays),
                                            params, b.labels, config.quantiles)
        assert out.tobytes() == ref.tobytes()
        for name, g in ref_grads.items():
            assert grads[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("pooling_variant", ["avg", "max"])
    def test_batch_with_every_row_dead(self, pooling_variant):
        # empty feature windows on both sides mask every row; one row is kept
        config = small_config(pooling_variant=pooling_variant)
        params = init_params(config)
        for p in params:
            p.value.data[...] = np.random.default_rng(79).normal(size=p.value.data.shape)
        b = encode_samples([make_sample(np.random.default_rng(83), 0, 0)], config)
        arrays = (b.buy, b.sell, b.mask_buy, b.mask_sell)
        out = predict_batch(params, config, *arrays)
        assert np.isfinite(out.data).all()
        np.testing.assert_array_equal(out.data, _untrimmed(params, config, *arrays).data)

    def test_no_node_is_longer_than_the_cutoff(self, monkeypatch):
        # hidden_dim == cutoff, so the transposed keys (B, H, T) are held to it too
        config, params, b = self._case(n_max=30, hidden_dim=4)
        cutoff = 2 ** config.cutoff_exponent
        _, nodes = _nodes(monkeypatch, lambda: aql_loss(
            predict_batch(params, config, b.buy, b.sell, b.mask_buy, b.mask_sell),
            T.constant(b.labels), config.quantiles))
        rows = [max(n.data.shape[1:]) for n in nodes if n.data.ndim == 3]
        assert rows and max(rows) <= cutoff < config.t_max


def _nodes(monkeypatch, forward):
    """``forward()``'s result and every op node it created, with or without
    a graph."""
    nodes = []
    node = T._node

    def recorded(*args):
        nodes.append(node(*args))
        return nodes[-1]

    monkeypatch.setattr(T, "_node", recorded)
    out = forward()
    monkeypatch.setattr(T, "_node", node)
    return out, nodes


def _ops(monkeypatch, forward):
    return len(_nodes(monkeypatch, forward)[1])


class TestIdentityMask:
    """A side whose trimmed mask is 1 everywhere gets no mask multiply."""

    @pytest.mark.parametrize("mask_variant,cutoff_exponent", [("none", 2), ("dual", 3)])
    @pytest.mark.parametrize("pooling_variant", ["avg", "max"])
    @pytest.mark.parametrize("aggregation_variant", ["residual", "concat"])
    @pytest.mark.parametrize("fusion_variant", ["fusion", "no_fusion"])
    def test_all_ones_bitwise_equal_to_explicit_masks(self, mask_variant, cutoff_exponent,
                                                      pooling_variant, aggregation_variant,
                                                      fusion_variant, monkeypatch):
        # every sample fills all t_max rows, so under "dual" with
        # 2**cutoff_exponent == t_max the masks are all ones as well
        config = small_config(hidden_dim=5, interaction_degree=2, cutoff_exponent=cutoff_exponent,
                              t_max=8, mask_variant=mask_variant, pooling_variant=pooling_variant,
                              aggregation_variant=aggregation_variant, fusion_variant=fusion_variant)
        rng = np.random.default_rng(89)
        b = encode_samples([make_sample(rng, 8, 9), make_sample(rng, 12, 8)], config)
        assert (b.mask_buy == 1).all() and (b.mask_sell == 1).all()
        params = init_params(config)
        arrays = (b.buy, b.sell, b.mask_buy, b.mask_sell)
        out, grads = _outputs_and_grads(lambda: predict_batch(params, config, *arrays),
                                        params, b.labels, config.quantiles)
        ref, ref_grads = _outputs_and_grads(lambda: _untrimmed(params, config, *arrays),
                                            params, b.labels, config.quantiles)
        assert out.tobytes() == ref.tobytes()
        for name, g in ref_grads.items():
            assert grads[name].tobytes() == g.tobytes(), name
        skipped = 2 if fusion_variant == "no_fusion" else 2 + 2 * config.interaction_degree
        assert (_ops(monkeypatch, lambda: _untrimmed(params, config, *arrays))
                - _ops(monkeypatch, lambda: predict_batch(params, config, *arrays))) == skipped

    def test_nonzero_mask_that_is_not_ones_is_applied(self, monkeypatch):
        config = small_config(hidden_dim=5, interaction_degree=2, cutoff_exponent=3, t_max=8)
        rng = np.random.default_rng(97)
        b = encode_samples([make_sample(rng, 8, 8), make_sample(rng, 9, 10)], config)
        params = init_params(config)
        ones = (b.buy, b.sell, b.mask_buy, b.mask_sell)
        scaled = (b.buy, b.sell, np.full_like(b.mask_buy, 0.5),
                  rng.uniform(0.5, 1.5, size=b.mask_sell.shape))
        out = predict_batch(params, config, *scaled)
        assert out.data.tobytes() == _untrimmed(params, config, *scaled).data.tobytes()
        assert (_ops(monkeypatch, lambda: predict_batch(params, config, *scaled))
                == _ops(monkeypatch, lambda: _untrimmed(params, config, *scaled)))
        assert not np.array_equal(out.data, predict_batch(params, config, *ones).data)


class TestGraphMemory:
    """The graph keeps only the arrays that backward formulas read."""

    def test_only_backward_inputs_outlive_the_forward(self, monkeypatch):
        config = small_config(hidden_dim=5, interaction_degree=2, cutoff_exponent=3, t_max=8)
        rng = np.random.default_rng(103)
        b = encode_samples([make_sample(rng, 8, 9), make_sample(rng, 12, 8)], config)
        assert (b.mask_buy == 1).all() and (b.mask_sell == 1).all()
        params = init_params(config)
        kinds = {}
        for p in params:
            if p.name.startswith("proj.") and p.name.endswith(".w"):
                kinds[id(p.value)] = "projection"     # x @ w, before + b
            elif p.name.startswith("fuse"):
                kinds[id(p.value)] = p.name.rsplit(".", 1)[1]
        refs = {kind: [] for kind in ("projection", "wq", "wk", "wv", "logits", "softmax", "sum")}
        matmul, softmax_rows, mean_rows = T.matmul, T.softmax_rows, T.mean_rows

        def watched_matmul(a, w):
            out = matmul(a, w)
            if id(w) in kinds:
                refs[kinds[id(w)]].append(weakref.ref(out.data))
            return out

        def watched_softmax_rows(x, *args):
            out = softmax_rows(x, *args)
            refs["logits"].append(weakref.ref(x.data))
            refs["softmax"].append(weakref.ref(out.data))
            return out

        def watched_mean_rows(x, *args):
            refs["sum"].append(weakref.ref(x.data))      # the residual sum
            return mean_rows(x, *args)

        monkeypatch.setattr(T, "matmul", watched_matmul)
        monkeypatch.setattr(T, "softmax_rows", watched_softmax_rows)
        monkeypatch.setattr(T, "mean_rows", watched_mean_rows)
        loss = aql_loss(predict_batch(params, config, b.buy, b.sell, b.mask_buy, b.mask_sell),
                        T.constant(b.labels), config.quantiles)
        monkeypatch.undo()
        assert [len(refs[k]) for k in refs] == [2, 4, 4, 4, 4, 4, 1]
        for kind in ("projection", "logits", "sum"):
            assert all(r() is None for r in refs[kind]), kind
        for kind in ("wq", "wk", "wv", "softmax"):
            assert all(r() is not None for r in refs[kind]), kind
        T.backward(loss)
        assert all(np.isfinite(p.grad).all() for p in params)


class TestScoreBatch:
    def _case(self, n, mask_variant="dual"):
        # one sample with a full buy side comes first; the rest have at most
        # 5 trades a side, so a chunk without the first sample trims more
        config = small_config(hidden_dim=4, interaction_degree=2, cutoff_exponent=4, t_max=16,
                              mask_variant=mask_variant)
        rng = np.random.default_rng(101)
        samples = [make_sample(rng, 16, 3)] + [
            make_sample(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6))) for _ in range(n - 1)]
        params = init_params(config)
        for p in params:
            p.value.data[...] = rng.normal(scale=0.8, size=p.value.data.shape)
        return config, params, encode_samples(samples, config)

    def test_records_no_graph_and_leaves_gradients(self, monkeypatch):
        config, params, b = self._case(40)
        for p in params:
            p.value.grad[...] = np.random.default_rng(7).normal(size=p.grad.shape)
        before = {p.name: p.grad.copy() for p in params}
        out, nodes = _nodes(monkeypatch, lambda: score_batch(params, config, b))
        assert isinstance(out, np.ndarray) and out.shape == (40, len(config.quantiles))
        assert nodes and all(n._node is None and not n.requires_grad for n in nodes)
        for p in params:
            assert p.grad.tobytes() == before[p.name].tobytes(), p.name

    def test_frozen_view_shares_arrays(self):
        config, params, _ = self._case(2)
        frozen = params.frozen()
        assert frozen.names == params.names
        for p in params:
            assert frozen[p.name].value.data is p.value.data
            assert not frozen[p.name].value.requires_grad

    @pytest.mark.parametrize("n", [1, 37, SCORE_CHUNK_ROWS])
    def test_bitwise_up_to_one_chunk(self, n):
        config, params, b = self._case(n)
        ref = predict_batch(params, config, b.buy, b.sell, b.mask_buy, b.mask_sell).data
        assert score_batch(params, config, b).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("mask_variant", ["dual", "reverse"])
    def test_chunks_agree_with_one_pass(self, mask_variant):
        n = 2 * SCORE_CHUNK_ROWS + 100
        config, params, b = self._case(n, mask_variant)
        whole = M._dead_lead(b.mask_buy, b.mask_sell)
        tail = slice(SCORE_CHUNK_ROWS, None)
        assert M._dead_lead(b.mask_buy[tail], b.mask_sell[tail]) > whole
        ref = predict_batch(params, config, b.buy, b.sell, b.mask_buy, b.mask_sell).data
        np.testing.assert_allclose(score_batch(params, config, b), ref, atol=1e-12, rtol=0)

    def test_empty_batch(self):
        config, params, _ = self._case(1)
        assert score_batch(params, config, encode_samples([], config)).shape == (0, 7)


class TestParamCount:
    def test_hand_counted_example(self):
        config = small_config(hidden_dim=4, interaction_degree=1, projection_bias=False)
        assert param_count(config) == 155
        assert init_params(config).n_scalars() == 155

    def test_zero_hidden_dim_rejected(self):
        with pytest.raises(ValueError):
            small_config(hidden_dim=0)

    def test_doubling_dim_quadruples_attention_term(self):
        base = small_config(hidden_dim=4, projection_bias=False)
        doubled = small_config(hidden_dim=8, projection_bias=False)

        def attention_term(config):
            return param_count(config) - 2 * 3 * config.hidden_dim - 7 * (config.hidden_dim + 1)

        assert attention_term(doubled) == 4 * attention_term(base)

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"projection_bias": False},
            {"interaction_degree": 2},
            {"aggregation_variant": "concat"},
            {"fusion_variant": "no_fusion"},
            {"head_variant": "single"},
            {"head_variant": "multi", "hidden_dim": 16},
        ],
    )
    def test_matches_registered_scalars(self, kw):
        config = small_config(**kw)
        assert param_count(config) == init_params(config).n_scalars()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        config = small_config(seed=9)
        params = init_params(config)
        feat = RobustScaler(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]), 100)
        lab = RobustScaler(np.array([10.0]), np.array([2.5]), 100)
        path = tmp_path / "model.json"
        save_checkpoint(path, config, params, feat, lab)
        config2, params2, feat2, lab2, extra = load_checkpoint(path)
        assert config2 == config
        for name in params.names:
            np.testing.assert_array_equal(params[name].value.data, params2[name].value.data)
        np.testing.assert_array_equal(feat2.medians, feat.medians)
        assert lab2.n_fit == 100
        assert extra == {}

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"magic": "SOMETHING.v9"}')
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bytes_match_the_stream_encoder(self, tmp_path):
        # ``json.dumps`` (C encoder) writes what ``json.dump`` (pure Python) did
        config = small_config(seed=5)
        params = init_params(config)
        params["head.q50.w"].value.data[:, 0] = [5e-324, -0.0, 1 / 3, 1e300]
        params["proj.buy.b"].value.data[0] = [-1e300, 0.1, 3 * 5e-324, -5e-324]
        feat = RobustScaler(np.array([1 / 3, -0.0, 5e-324]), np.array([1e300, 1.0, 0.1]), 7)
        path = tmp_path / "c.json"
        save_checkpoint(path, config, params, feat, feat, extra={"best_epoch": 3})
        reference = io.StringIO()
        json.dump(json.loads(path.read_text(encoding="utf-8")), reference, sort_keys=True)
        assert path.read_bytes() == (reference.getvalue() + "\n").encode("utf-8")
        _, loaded, _, _, _ = load_checkpoint(path)
        for p in params:
            assert loaded[p.name].value.data.tobytes() == p.value.data.tobytes(), p.name

    def test_byte_identical_for_same_inputs(self, tmp_path):
        config = small_config(seed=5)
        feat = RobustScaler(np.array([0.0]), np.array([1.0]), 1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, config, init_params(config), feat, feat)
        save_checkpoint(p2, config, init_params(config), feat, feat)
        assert p1.read_bytes() == p2.read_bytes()
