import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfusion import tensor as T
from orderfusion.model import ModelConfig, init_params, predict_batch
from orderfusion.training import aql_loss


def fd_grad(build_loss, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. the array x.

    ``build_loss`` must rebuild the graph from the current contents of x.
    """
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = build_loss()
        x[idx] = orig - step
        fm = build_loss()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * step)
    return g


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() <= rtol, f"max rel err {rel.max():.3e}"


def graph_nodes(loss: T.Tensor) -> list:
    """Every ``_Node`` reachable from ``loss``."""
    nodes, stack, seen = [], [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(p for p in node.parents if type(p) is T._Node)
    return nodes


class TestMatmul:
    def test_identity(self):
        a = T.constant(np.eye(2))
        b = T.constant([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_scalar_product(self):
        out = T.matmul(T.constant([[2.0]]), T.constant([[3.0]]))
        assert out.item() == 6.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(T.constant(a), T.constant(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))

    def test_batched_against_loop(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 4, 3))
        w = rng.normal(size=(3, 2))
        out = T.matmul(T.constant(a), T.constant(w))
        for i in range(5):
            np.testing.assert_allclose(out.data[i], a[i] @ w, atol=1e-12)

    def test_batch_size_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.constant(np.ones((2, 3, 4))), T.constant(np.ones((3, 4, 5))))

    @pytest.mark.parametrize("shapes", [((3, 4), (4, 2)), ((6, 3, 4), (4, 2)), ((6, 3, 4), (6, 4, 3))])
    def test_gradients_match_fd(self, shapes):
        rng = np.random.default_rng(3)
        a = rng.normal(size=shapes[0])
        b = rng.normal(size=shapes[1])

        def run():
            ta = T.Tensor(a, requires_grad=True)
            tb = T.Tensor(b, requires_grad=True)
            loss = T.sum_all(T.matmul(ta, tb))
            return ta, tb, loss

        ta, tb, loss = run()
        T.backward(loss)
        assert_grad_close(ta.grad, fd_grad(lambda: run()[2].item(), a))
        assert_grad_close(tb.grad, fd_grad(lambda: run()[2].item(), b))


class TestSoftmax:
    def test_symmetric_row(self):
        out = T.softmax_rows(T.constant([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = T.softmax_rows(T.constant([[1000.0, 1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)
        assert np.isfinite(out.data).all()

    def test_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        vals = [1.0, 2.0, 3.0]
        exps = [mpmath.e ** v for v in vals]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        out = T.softmax_rows(T.constant([vals]))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12, rtol=0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6), st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        out = T.softmax_rows(T.constant([row])).data
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out >= 0).all()
        shifted = T.softmax_rows(T.constant([[v + shift for v in row]])).data
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        weights = np.random.default_rng(9).normal(size=(3, 4))

        def run():
            tx = T.Tensor(x, requires_grad=True)
            loss = T.sum_all(T.softmax_rows(tx) * T.constant(weights))
            return tx, loss

        tx, loss = run()
        T.backward(loss)
        assert_grad_close(tx.grad, fd_grad(lambda: run()[1].item(), x))

    @pytest.mark.parametrize("lead", [1, 3, 40])
    @pytest.mark.parametrize("scale", [1.0, 0.35])
    def test_implicit_zero_columns_match_explicit(self, lead, scale):
        rng = np.random.default_rng(19)
        x = rng.normal(scale=3.0, size=(2, 4, 5))
        x[0, 0] = -np.abs(x[0, 0]) - 1.0      # every explicit logit below the zeros
        x[0, 1] = 0.0                          # ties with the zeros
        x[1, 2] += 200.0                       # zeros far below the max
        x[1, 3] -= 3000.0                      # zeros far above: exp(-rowmax) would overflow
        explicit = np.concatenate([np.zeros((2, 4, lead)), x * scale], axis=-1)
        expected = T.softmax_rows(T.constant(explicit)).data[..., lead:]
        with np.errstate(over="raise", invalid="raise"):
            out = T.softmax_rows(T.constant(x), scale, lead).data
        np.testing.assert_allclose(out, expected, atol=1e-15, rtol=0)

    def test_lead_zero_scale_is_bitwise_the_scaled_input(self):
        x = np.random.default_rng(21).normal(size=(3, 4, 4))
        folded = T.softmax_rows(T.constant(x), 0.125).data
        assert (folded == T.softmax_rows(T.constant(x * 0.125)).data).all()

    def test_gradient_with_lead_and_scale_matches_fd(self):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(2, 3, 4))
        weights = rng.normal(size=(2, 3, 4))

        def run():
            tx = T.Tensor(x, requires_grad=True)
            loss = T.sum_all(T.softmax_rows(tx, 0.7, 3) * T.constant(weights))
            return tx, loss

        tx, loss = run()
        T.backward(loss)
        assert_grad_close(tx.grad, fd_grad(lambda: run()[1].item(), x))

    def test_gradient_with_lead_matches_explicit_columns(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(2, 3, 4))
        weights = rng.normal(size=(2, 3, 4))
        tx = T.Tensor(x, requires_grad=True)
        T.backward(T.sum_all(T.softmax_rows(tx, 0.5, 2) * T.constant(weights)))
        te = T.Tensor(np.concatenate([np.zeros((2, 3, 2)), x * 0.5], axis=-1), requires_grad=True)
        padded_w = np.concatenate([np.zeros((2, 3, 2)), weights], axis=-1)
        T.backward(T.sum_all(T.softmax_rows(te) * T.constant(padded_w)))
        np.testing.assert_allclose(tx.grad, te.grad[..., 2:] * 0.5, atol=1e-15, rtol=0)


class TestSwish:
    def test_zero_fixed_point(self):
        assert T.swish(T.constant([[0.0]])).item() == 0.0

    def test_asymptote(self):
        assert abs(T.swish(T.constant([[50.0]])).item() - 50.0) <= 1e-9

    def test_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        expected = float(mpmath.mpf(1) / (1 + mpmath.e ** -1))
        out = T.swish(T.constant([[1.0]])).item()
        assert abs(out - expected) <= 1e-12

    def test_no_overflow_large_negative(self):
        out = T.swish(T.constant([[-1000.0]]))
        assert np.isfinite(out.data).all()
        assert abs(out.item()) <= 1e-9

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 5))

        def run():
            tx = T.Tensor(x, requires_grad=True)
            return tx, T.mean_all(T.swish(tx))

        tx, loss = run()
        T.backward(loss)
        assert_grad_close(tx.grad, fd_grad(lambda: run()[1].item(), x))

    def test_bitwise_equal_to_reference_formula(self):
        rng = np.random.default_rng(41)
        d = np.concatenate([rng.normal(scale=4.0, size=200), [0.0, -0.0, 1e-300, -1e-300,
                            30.0, -30.0, 745.0, -745.0, 1e4, -1e4, 1e300, -1e300]]).reshape(4, -1)
        g = rng.normal(size=d.shape)
        e = np.exp(-np.abs(d))
        sig = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        expected = d * sig
        tx = T.Tensor(d, requires_grad=True)
        out = T.swish(tx)
        assert out.data.tobytes() == expected.tobytes()
        T.backward(T.sum_all(out * T.constant(g)))
        expected_grad = np.zeros_like(d)       # a leaf adds into a zeroed buffer
        expected_grad += g * (sig * (1.0 + d * (1.0 - sig)))
        assert tx.grad.tobytes() == expected_grad.tobytes()


class TestElementwise:
    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((4, 3), (4, 3)), ((4, 3), (1, 3)), ((4, 3), (4, 1)), ((2, 4, 3), (2, 4, 1)), ((2, 4, 3), (1, 3))],
    )
    def test_add_mul_grads_with_broadcast(self, shape_a, shape_b):
        rng = np.random.default_rng(17)
        a = rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)

        def run(op):
            ta = T.Tensor(a, requires_grad=True)
            tb = T.Tensor(b, requires_grad=True)
            out = ta + tb if op == "add" else ta * tb
            return ta, tb, T.sum_all(out)

        for op in ("add", "mul"):
            ta, tb, loss = run(op)
            T.backward(loss)
            assert_grad_close(ta.grad, fd_grad(lambda: run(op)[2].item(), a))
            assert_grad_close(tb.grad, fd_grad(lambda: run(op)[2].item(), b))

    def test_incompatible_shapes_raise(self):
        with pytest.raises(T.ShapeError):
            _ = T.constant(np.ones((2, 3))) + T.constant(np.ones((2, 4)))

    def test_maximum_routes_ties_to_first(self):
        a = T.Tensor([[1.0, 5.0]], requires_grad=True)
        b = T.Tensor([[1.0, 2.0]], requires_grad=True)
        T.backward(T.sum_all(T.maximum(a, b)))
        np.testing.assert_array_equal(a.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[0.0, 0.0]])

    def test_abs_gradient(self):
        x = T.Tensor([[-2.0, 3.0, 0.0]], requires_grad=True)
        T.backward(T.sum_all(T.abs_(x)))
        np.testing.assert_array_equal(x.grad, [[-1.0, 1.0, 0.0]])


class TestReductionsAndShaping:
    def test_mean_rows_includes_all_rows(self):
        x = T.constant(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(T.mean_rows(x).data, [[1.0, 1.5]])

    def test_mean_rows_batched_grad(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 5, 2))

        def run():
            tx = T.Tensor(x, requires_grad=True)
            return tx, T.sum_all(T.mean_rows(tx))

        tx, loss = run()
        T.backward(loss)
        assert_grad_close(tx.grad, fd_grad(lambda: run()[1].item(), x))

    @pytest.mark.parametrize("lead", [1, 4])
    def test_mean_rows_lead_matches_explicit_zero_rows(self, lead):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(3, 5, 2))
        tx = T.Tensor(x, requires_grad=True)
        te = T.Tensor(np.concatenate([np.zeros((3, lead, 2)), x], axis=1), requires_grad=True)
        out, ref = T.mean_rows(tx, lead), T.mean_rows(te)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-15, rtol=0)
        w = T.constant(rng.normal(size=(3, 2)))
        T.backward(T.sum_all(out * w))
        T.backward(T.sum_all(ref * w))
        np.testing.assert_array_equal(tx.grad, te.grad[:, lead:])

    @pytest.mark.parametrize("lead", [1, 3])
    def test_max_rows_lead_matches_explicit_zero_rows(self, lead):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(3, 4, 5))
        x[0, :, 0] = -np.abs(x[0, :, 0]) - 0.5     # active max negative: the zeros win
        x[1, :, 1] = -np.abs(x[1, :, 1])
        x[1, 2, 1] = 0.0                          # active max exactly 0: tie goes to the zeros
        x[2, :, 2] = np.abs(x[2, :, 2]) + 0.5     # active max positive
        tx = T.Tensor(x, requires_grad=True)
        te = T.Tensor(np.concatenate([np.zeros((3, lead, 5)), x], axis=1), requires_grad=True)
        out, ref = T.max_rows(tx, lead), T.max_rows(te)
        np.testing.assert_array_equal(out.data, ref.data)
        assert out.data[0, 0] == 0.0 and out.data[1, 1] == 0.0
        w = T.constant(rng.normal(size=(3, 5)))
        T.backward(T.sum_all(out * w))
        T.backward(T.sum_all(ref * w))
        np.testing.assert_array_equal(tx.grad, te.grad[:, lead:])
        assert not tx.grad[0, :, 0].any() and not tx.grad[1, :, 1].any()

    def test_max_rows_grad(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2, 6, 3))

        def run():
            tx = T.Tensor(x, requires_grad=True)
            return tx, T.sum_all(T.max_rows(tx))

        tx, loss = run()
        T.backward(loss)
        assert_grad_close(tx.grad, fd_grad(lambda: run()[1].item(), x))

    def test_concat_cols_grad(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 3))

        def run():
            ta = T.Tensor(a, requires_grad=True)
            tb = T.Tensor(b, requires_grad=True)
            w = T.constant(np.arange(5.0).reshape(1, 5))
            return ta, tb, T.sum_all(T.concat_cols(ta, tb) * w)

        ta, tb, loss = run()
        T.backward(loss)
        assert_grad_close(ta.grad, fd_grad(lambda: run()[2].item(), a))
        assert_grad_close(tb.grad, fd_grad(lambda: run()[2].item(), b))


class TestBackwardContract:
    def test_linear_map_gradient_exact(self):
        x = np.array([[2.0], [3.0]])
        w = T.Parameter("w", np.zeros((4, 2)))
        loss = T.sum_all(T.matmul(w.value, T.constant(x)))
        T.backward(loss)
        np.testing.assert_array_equal(w.grad, np.tile(x.T, (4, 1)))

    def test_disconnected_parameter_grad_is_zero(self):
        used = T.Parameter("used", np.ones((2, 2)))
        unused = T.Parameter("unused", np.ones((2, 2)))
        T.backward(T.sum_all(used.value * T.constant(np.ones((2, 2)))))
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))
        np.testing.assert_array_equal(used.grad, np.ones((2, 2)))

    def test_backward_on_non_scalar_raises(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(T.GradError):
            T.backward(x + x)

    def test_repeated_backward_accumulates(self):
        x = T.Tensor([[3.0]], requires_grad=True)
        loss = T.sum_all(x * x)
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [[12.0]])
        x.zero_grad()
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_shared_subexpression(self):
        x = T.Tensor([[2.0]], requires_grad=True)
        y = x * x          # y = x^2
        loss = T.sum_all(y * y)  # x^4, d/dx = 4 x^3 = 32
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [[32.0]])

    def test_forward_is_pure(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=(3, 3))
        out1 = T.softmax_rows(T.matmul(T.constant(a), T.constant(a))).data
        out2 = T.softmax_rows(T.matmul(T.constant(a), T.constant(a))).data
        assert (out1 == out2).all()

    def test_interior_grads_freed_after_model_backward(self):
        rng = np.random.default_rng(43)
        config = ModelConfig(hidden_dim=4, interaction_degree=2, cutoff_exponent=2, t_max=8)
        params = init_params(config)
        buy, sell = rng.normal(size=(2, 5, 8, 3))
        mask = np.ones((5, 8, 1))
        pred = predict_batch(params, config, buy, sell, mask, mask)
        loss = aql_loss(pred, T.constant(rng.normal(size=(5, 1))), config.quantiles)
        T.backward(loss)
        nodes = graph_nodes(loss)
        assert len(nodes) > 50
        assert all(node.grad is None for node in nodes)
        assert pred.grad is None and loss.grad is None
        grads = [p.grad for p in params]
        assert all(g is not None and np.isfinite(g).all() for g in grads)
        assert any(g.any() for g in grads)

    @pytest.mark.parametrize("variant", [
        {},
        {"head_variant": "multi", "aggregation_variant": "concat", "pooling_variant": "max"},
        {"head_variant": "multi", "fusion_variant": "no_fusion"},
        {"head_variant": "single", "aggregation_variant": "no_residual"},
    ])
    def test_no_node_holds_a_tensor(self, variant):
        # a node keeps its parents' sinks (nodes or leaves) and its closure
        # only arrays, so an op output no backward formula reads can be
        # freed; masks that are not all ones keep the mask multiplies
        rng = np.random.default_rng(53)
        config = ModelConfig(hidden_dim=4, interaction_degree=2, cutoff_exponent=2, t_max=8,
                             **variant)
        params = init_params(config)
        buy, sell = rng.normal(size=(2, 5, 8, 3))
        mask_buy, mask_sell = rng.uniform(0.5, 1.5, size=(2, 5, 8, 1))
        pred = predict_batch(params, config, buy, sell, mask_buy, mask_sell)
        loss = T.sum_all(aql_loss(pred, T.constant(rng.normal(size=(5, 1))),
                                  config.head_quantiles) * T.constant([[2.0]]))
        nodes = graph_nodes(loss)
        assert len(nodes) > 20
        leaves = {id(p.value) for p in params}
        for node in nodes:
            for sink in node.parents:
                assert sink is None or type(sink) is T._Node or id(sink) in leaves
            for cell in node.backward_fn.__closure__ or ():
                try:
                    held = cell.cell_contents
                except ValueError:      # a cell never assigned
                    continue
                items = held if isinstance(held, (tuple, list)) else (held,)
                assert not any(isinstance(item, T.Tensor) for item in items), node.backward_fn

    def test_add_feeding_two_interior_nodes_matches_fd(self):
        # ``u + v`` hands one gradient array to both u and v, and each of them
        # also receives a gradient from ``u * v``: an in-place add into the
        # shared array would leak one sibling's gradient into the other.
        rng = np.random.default_rng(47)
        x = rng.normal(size=(3, 2))
        w = rng.normal(size=(3, 2))

        def run():
            tx = T.Tensor(x, requires_grad=True)
            tw = T.Tensor(w, requires_grad=True)
            u = T.swish(tx)
            v = tx * tw
            loss = T.sum_all(T.swish(u + v) + u * v)
            return tx, tw, loss

        tx, tw, loss = run()
        T.backward(loss)
        assert_grad_close(tx.grad, fd_grad(lambda: run()[2].item(), x))
        assert_grad_close(tw.grad, fd_grad(lambda: run()[2].item(), w))
