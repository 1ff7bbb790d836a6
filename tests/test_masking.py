import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderfusion.masking import build_dual_mask, pad_side


def mask_of(sides, t_max, alpha, variant="dual", draws=None):
    """The combined masks of raw sides, padded to t_max in one batch."""
    _, valid = pad_side(sides, t_max)
    return build_dual_mask(valid, t_max, alpha, variant, draws).combined


class TestPadSide:
    def test_three_rows_into_eight(self):
        rows = np.arange(9.0).reshape(3, 3)
        padded, valid = pad_side([rows], 8)
        np.testing.assert_array_equal(valid, [3])
        assert (padded[0, :5] == 0.0).all()
        np.testing.assert_array_equal(padded[0, 5:], rows)

    def test_empty_side(self):
        padded, valid = pad_side([np.zeros((0, 3))], 4)
        np.testing.assert_array_equal(valid, [0])
        assert (padded == 0.0).all()

    def test_truncation_keeps_newest(self):
        rows = np.arange(600.0).reshape(200, 3)
        padded, valid = pad_side([rows, rows[:5]], 128)
        np.testing.assert_array_equal(valid, [128, 5])
        np.testing.assert_array_equal(padded[0], rows[-128:])
        np.testing.assert_array_equal(padded[1, -5:], rows[:5])
        assert padded.shape == (2, 128, 3) and padded.flags.c_contiguous


class TestPaddingMask:
    # alpha = log2(t_max): the temporal cutoff keeps everything, so the dual
    # mask is the padding mask alone
    def test_three_valid_of_eight(self):
        np.testing.assert_array_equal(mask_of([np.ones((3, 3))], 8, 3), [[0, 0, 0, 0, 0, 1, 1, 1]])

    def test_all_padded_rows(self):
        assert (mask_of([np.zeros((0, 3))], 8, 3) == 0).all()

    def test_full_side(self):
        assert (mask_of([np.ones((8, 3))], 8, 3) == 1).all()

    def test_real_row_equal_to_padded_row_stays_unmasked(self):
        rows = np.array([[1.0, 2.0, 3.0], (0.0,) * 3])   # a real row equal to a padded one
        np.testing.assert_array_equal(mask_of([rows], 4, 2), [[0, 0, 1, 1]])


class TestTemporalMask:
    # full sides: the dual mask is the temporal mask alone
    def test_trailing_four_of_eight(self):
        np.testing.assert_array_equal(build_dual_mask([8], 8, 2).combined, [[0, 0, 0, 0, 1, 1, 1, 1]])

    def test_alpha_zero(self):
        np.testing.assert_array_equal(build_dual_mask([4], 4, 0).combined, [[0, 0, 0, 1]])

    def test_alpha_six_on_128(self):
        mask = build_dual_mask([128], 128, 6).combined[0]
        assert mask.sum() == 64
        assert (mask[-64:] == 1).all() and (mask[:64] == 0).all()

    def test_cutoff_beyond_t_max_rejected(self):
        with pytest.raises(ValueError):
            build_dual_mask([8], 8, 4)


class TestDualMask:
    def test_elementwise_product(self):
        # per row, the padding mask of 1 to 4 valid rows times the temporal
        # mask [0, 0, 1, 1]
        np.testing.assert_array_equal(build_dual_mask([1, 2, 3, 4], 4, 1).combined,
                                      [[0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1]])

    def test_none_variant(self):
        out = build_dual_mask([0, 2], 4, 1, "none").combined
        np.testing.assert_array_equal(out, [[1, 1, 1, 1], [1, 1, 1, 1]])
        assert out.dtype == np.float64

    def test_random_variant_continuous_and_seeded(self):
        draws = np.random.default_rng(5).uniform(0.0, 1.0, size=(2, 2, 16))[:, 0]
        m1 = build_dual_mask([0, 16], 16, 4, "random", draws).combined
        m2 = build_dual_mask([0, 16], 16, 4, "random", draws).combined
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(m1, draws)
        assert m1.flags.c_contiguous
        assert ((m1 >= 0) & (m1 <= 1)).all()
        assert len(np.unique(m1)) > 2  # continuous, not binary
        with pytest.raises(ValueError):
            build_dual_mask([0, 16], 16, 4, "random")

    def test_reverse_keeps_oldest_valid(self):
        # valid_len 3, cutoff 2, t_max 4: ones exactly on the two oldest valid rows
        out = mask_of([np.ones((3, 3))], 4, 1, "reverse")
        np.testing.assert_array_equal(out, [[0, 1, 1, 0]])

    def test_reverse_with_fewer_valid_than_cutoff(self):
        out = mask_of([np.ones((1, 3)), np.ones((6, 3))], 8, 2, "reverse")
        assert out[0].sum() == 1
        assert out[0, 7] == 1.0
        np.testing.assert_array_equal(out[1], [0, 0, 1, 1, 1, 1, 0, 0])

    def test_length_mismatch(self):
        # valid lengths are pad_side's, never a raw side longer than t_max
        with pytest.raises(ValueError):
            build_dual_mask([3, 5], 4, 1)
        with pytest.raises(ValueError):
            build_dual_mask([-1], 4, 1)

    @given(st.lists(st.integers(0, 16), max_size=5), st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_counts(self, valid_lens, alpha):
        t_max = 16
        combined = mask_of([np.ones((k, 3)) for k in valid_lens], t_max, alpha)
        assert combined.shape == (len(valid_lens), t_max)
        np.testing.assert_array_equal(combined * combined, combined)
        np.testing.assert_array_equal(combined.sum(axis=1), np.minimum(valid_lens, 2 ** alpha))

    def test_padded_row_cell_edits_change_no_mask(self):
        padded, valid = pad_side([np.full((3, 3), 2.0)], 8)
        base = build_dual_mask(valid, 8, 2).combined
        padded[0, 0, 1] = -123.0  # padded row, one cell mutated
        np.testing.assert_array_equal(build_dual_mask(valid, 8, 2).combined, base)


@pytest.mark.parametrize("variant", ["dual", "reverse"])
def test_batch_matches_per_side_reference(variant):
    """Each row of a batched mask equals the per-side rule: padding ones on
    the trailing ``valid`` rows, then the newest (dual) or oldest (reverse)
    ``2**alpha`` of them."""
    t_max, alpha = 16, 3
    valid = np.arange(t_max + 1)
    out = build_dual_mask(valid, t_max, alpha, variant).combined
    for row, k in zip(out, valid):
        data = list(range(t_max - k, t_max))
        kept = data[-2 ** alpha:] if variant == "dual" else data[:2 ** alpha]
        expected = np.zeros(t_max)
        expected[kept] = 1.0
        np.testing.assert_array_equal(row, expected)
