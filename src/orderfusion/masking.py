"""Fixed-length padding and the dual mask family, built per batch.

Sequences are pre-padded: rows of zeros sit at the front so the newest
trades occupy the trailing positions. Zero is the scaled median, so a padded
row carries no value that an arm without a padding mask (the ``none`` and
``random`` variants) reads as an outlier. A side's mask depends only on its
valid length (the real rows left after padding) and the temporal cutoff
2**alpha, so both steps take a whole batch of sides at once and the masks
are array expressions of the (n,) valid lengths. Masks are float arrays
multiplied into row representations; a combined mask entry of zero deletes
that row from everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MASK_VARIANTS",
    "DualMask",
    "pad_side",
    "build_dual_mask",
]

MASK_VARIANTS = ("dual", "none", "random", "reverse")


@dataclass
class DualMask:
    combined: np.ndarray        # (n, t_max) binary, or real under the random variant


def pad_side(sides: list, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-pad each side's (rows, 3) matrix to t_max with rows of zeros;
    excess old rows are cut from the front so the newest t_max survive.

    Returns the (n, t_max, 3) padded batch and the (n,) valid lengths.
    """
    padded = np.zeros((len(sides), t_max, 3))
    valid = np.zeros(len(sides), dtype=np.int64)
    for i, rows in enumerate(sides):
        rows = rows[-t_max:]
        valid[i] = len(rows)
        padded[i, t_max - len(rows):] = rows
    return padded, valid


def build_dual_mask(
    valid: np.ndarray,
    t_max: int,
    alpha: int,
    variant: str = "dual",
    draws: np.ndarray | None = None,
) -> DualMask:
    """The (n, t_max) mask of padded sides with ``valid`` real rows each.

    Row i's data occupies positions ``first = t_max - valid[i]`` onwards.

    dual     1 on the data rows among the trailing 2**alpha positions
    none     all ones (every position, padded or not, passes through)
    random   the (n, t_max) uniform [0, 1) ``draws``, multiplied into
             representations directly as a continuous mask
    reverse  1 on the oldest 2**alpha data rows instead of the newest
    """
    cutoff = 2 ** alpha
    if cutoff > t_max:
        raise ValueError(f"cutoff 2^{alpha} = {cutoff} exceeds t_max = {t_max}")
    valid = np.asarray(valid)
    if ((valid < 0) | (valid > t_max)).any():
        raise ValueError(f"valid lengths must lie in [0, {t_max}], got {valid}")
    pos = np.arange(t_max)
    first = t_max - valid.reshape(-1, 1)
    if variant == "dual":
        keep = (pos >= first) & (pos >= t_max - cutoff)
    elif variant == "none":
        return DualMask(np.ones((len(valid), t_max)))
    elif variant == "random":
        if draws is None:
            raise ValueError("random mask variant needs uniform draws")
        return DualMask(np.ascontiguousarray(draws, dtype=np.float64))
    elif variant == "reverse":
        keep = (pos >= first) & (pos < first + cutoff)
    else:
        raise ValueError(f"unknown mask variant {variant!r}; known: {MASK_VARIANTS}")
    return DualMask(keep.astype(np.float64))
