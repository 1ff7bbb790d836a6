"""Fixed-length padding and the padding/temporal/dual mask family.

Sequences are pre-padded: sentinel rows sit at the front so the newest
trades occupy the trailing positions. Masks are float vectors multiplied
into row representations; a combined mask entry of zero deletes that row
from everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAD_SENTINEL",
    "MASK_VARIANTS",
    "PaddedSide",
    "DualMask",
    "pad_side",
    "padding_mask",
    "temporal_mask",
    "dual_mask",
    "build_dual_mask",
]

PAD_SENTINEL = 10_000.0

MASK_VARIANTS = ("dual", "none", "random", "reverse")


@dataclass
class PaddedSide:
    matrix: np.ndarray          # (t_max, 3)
    valid_len: int


@dataclass
class DualMask:
    padding: np.ndarray         # (t_max,) binary
    temporal: np.ndarray        # (t_max,) binary
    combined: np.ndarray        # (t_max,) binary, or real under the random variant
    cutoff_exponent: int

    @property
    def cutoff_len(self) -> int:
        return 2 ** self.cutoff_exponent


def pad_side(rows: np.ndarray, t_max: int) -> PaddedSide:
    """Pre-pad to t_max with sentinel rows; excess old rows are cut from
    the front so the newest t_max survive."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    if rows.shape[0] > t_max:
        rows = rows[-t_max:]
    valid_len = rows.shape[0]
    matrix = np.full((t_max, 3), PAD_SENTINEL)
    if valid_len:
        matrix[t_max - valid_len:] = rows
    return PaddedSide(matrix=matrix, valid_len=valid_len)


def padding_mask(p: PaddedSide) -> np.ndarray:
    """1 on the trailing ``valid_len`` rows (the data), 0 on the padding."""
    return (np.arange(len(p.matrix)) >= len(p.matrix) - p.valid_len).astype(np.float64)


def temporal_mask(t_max: int, alpha: int) -> np.ndarray:
    """1 on the trailing 2**alpha positions (the most recent trades)."""
    cutoff = 2 ** alpha
    if cutoff > t_max:
        raise ValueError(f"cutoff 2^{alpha} = {cutoff} exceeds t_max = {t_max}")
    mask = np.zeros(t_max)
    mask[t_max - cutoff:] = 1.0
    return mask


def dual_mask(
    padding: np.ndarray,
    temporal: np.ndarray,
    variant: str = "dual",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Combine the two masks, or produce one of the ablation variants.

    dual     elementwise product of padding and temporal masks
    none     all ones (every position, padded or not, passes through)
    random   i.i.d. uniform [0,1] entries from ``rng``; multiplies
             representations directly as a continuous mask
    reverse  keep the oldest ``cutoff`` valid rows instead of the newest,
             where the cutoff is the number of ones in ``temporal``
    """
    padding = np.asarray(padding, dtype=np.float64).reshape(-1)
    temporal = np.asarray(temporal, dtype=np.float64).reshape(-1)
    if padding.shape != temporal.shape:
        raise ValueError(f"mask lengths disagree: {padding.shape} vs {temporal.shape}")
    if variant == "dual":
        return padding * temporal
    if variant == "none":
        return np.ones_like(padding)
    if variant == "random":
        if rng is None:
            raise ValueError("random mask variant needs an rng")
        return rng.uniform(0.0, 1.0, size=padding.shape)
    if variant == "reverse":
        cutoff = int(round(temporal.sum()))
        out = np.zeros_like(padding)
        valid = np.flatnonzero(padding)
        out[valid[:cutoff]] = 1.0
        return out
    raise ValueError(f"unknown mask variant {variant!r}; known: {MASK_VARIANTS}")


def build_dual_mask(
    padded: PaddedSide,
    alpha: int,
    variant: str = "dual",
    rng: np.random.Generator | None = None,
) -> DualMask:
    b = padding_mask(padded)
    d = temporal_mask(padded.matrix.shape[0], alpha)
    return DualMask(padding=b, temporal=d, combined=dual_mask(b, d, variant, rng), cutoff_exponent=alpha)
