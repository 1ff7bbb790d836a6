import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfusion.masking import (
    PAD_SENTINEL,
    build_dual_mask,
    dual_mask,
    pad_side,
    padding_mask,
    temporal_mask,
)


class TestPadSide:
    def test_three_rows_into_eight(self):
        rows = np.arange(9.0).reshape(3, 3)
        p = pad_side(rows, 8)
        assert p.valid_len == 3
        assert (p.matrix[:5] == PAD_SENTINEL).all()
        np.testing.assert_array_equal(p.matrix[5:], rows)

    def test_empty_side(self):
        p = pad_side(np.zeros((0, 3)), 4)
        assert p.valid_len == 0
        assert (p.matrix == PAD_SENTINEL).all()

    def test_truncation_keeps_newest(self):
        rows = np.arange(600.0).reshape(200, 3)
        p = pad_side(rows, 128)
        assert p.valid_len == 128
        np.testing.assert_array_equal(p.matrix, rows[-128:])


class TestPaddingMask:
    def test_three_valid_of_eight(self):
        p = pad_side(np.ones((3, 3)), 8)
        np.testing.assert_array_equal(padding_mask(p), [0, 0, 0, 0, 0, 1, 1, 1])

    def test_all_sentinel(self):
        assert (padding_mask(pad_side(np.zeros((0, 3)), 6)) == 0).all()

    def test_full_side(self):
        assert (padding_mask(pad_side(np.ones((6, 3)), 6)) == 1).all()

    def test_real_row_equal_to_sentinel_stays_unmasked(self):
        rows = np.array([[1.0, 2.0, 3.0], (PAD_SENTINEL,) * 3])
        np.testing.assert_array_equal(padding_mask(pad_side(rows, 4)), [0, 0, 1, 1])


class TestTemporalMask:
    def test_trailing_four_of_eight(self):
        np.testing.assert_array_equal(temporal_mask(8, 2), [0, 0, 0, 0, 1, 1, 1, 1])

    def test_alpha_zero(self):
        np.testing.assert_array_equal(temporal_mask(4, 0), [0, 0, 0, 1])

    def test_alpha_six_on_128(self):
        mask = temporal_mask(128, 6)
        assert mask.sum() == 64
        assert (mask[-64:] == 1).all() and (mask[:64] == 0).all()

    def test_cutoff_beyond_t_max_rejected(self):
        with pytest.raises(ValueError):
            temporal_mask(8, 4)


class TestDualMask:
    def test_elementwise_product(self):
        np.testing.assert_array_equal(
            dual_mask(np.array([0.0, 0, 1, 1]), np.array([0.0, 1, 1, 1])), [0, 0, 1, 1]
        )

    def test_none_variant(self):
        np.testing.assert_array_equal(
            dual_mask(np.array([0.0, 0, 1, 1]), np.array([0.0, 1, 1, 1]), "none"), [1, 1, 1, 1]
        )

    def test_random_variant_continuous_and_seeded(self):
        b = np.zeros(16)
        d = np.ones(16)
        m1 = dual_mask(b, d, "random", np.random.default_rng(5))
        m2 = dual_mask(b, d, "random", np.random.default_rng(5))
        np.testing.assert_array_equal(m1, m2)
        assert ((m1 >= 0) & (m1 <= 1)).all()
        assert len(np.unique(m1)) > 2  # continuous, not binary

    def test_reverse_keeps_oldest_valid(self):
        # valid_len 3, cutoff 2, t_max 4: ones exactly on the two oldest valid rows
        p = pad_side(np.ones((3, 3)), 4)
        b = padding_mask(p)
        d = temporal_mask(4, 1)
        out = dual_mask(b, d, "reverse")
        expected = np.zeros(4)
        valid_positions = [i for i in range(4) if b[i] == 1]
        for i in valid_positions[:2]:
            expected[i] = 1.0
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(out, [0, 1, 1, 0])

    def test_reverse_with_fewer_valid_than_cutoff(self):
        p = pad_side(np.ones((1, 3)), 8)
        out = dual_mask(padding_mask(p), temporal_mask(8, 2), "reverse")
        assert out.sum() == 1
        assert out[7] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dual_mask(np.ones(3), np.ones(4))

    @given(st.integers(0, 16), st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_counts(self, valid_len, alpha):
        t_max = 16
        p = pad_side(np.ones((valid_len, 3)), t_max)
        dm = build_dual_mask(p, alpha)
        np.testing.assert_array_equal(dm.combined * dm.combined, dm.combined)
        assert dm.combined.sum() == min(valid_len, 2 ** alpha)
        assert dm.cutoff_len == 2 ** alpha

    def test_sentinel_cell_edits_change_no_mask(self):
        p = pad_side(np.full((3, 3), 2.0), 8)
        base = build_dual_mask(p, 2).combined
        p.matrix[0, 1] = -123.0  # sentinel row, one cell mutated
        np.testing.assert_array_equal(build_dual_mask(p, 2).combined, base)
