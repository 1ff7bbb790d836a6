"""The buy/sell fusion forecaster.

Pipeline per sample: project each padded side into the hidden space,
iteratively cross-attend buy against sell (and vice versa) for the
configured number of interaction degrees, aggregate the per-degree
representations, pool over time, and emit multiple quantiles through a
non-crossing hierarchical head. Every intermediate row representation is
multiplied by that side's combined mask, so padded or cut-off rows stay
exactly zero. ``predict_batch`` repeats each side's (n, t, 1) mask to the
(n, t, H) shape of those representations once per batch, so that every
mask multiply runs on two contiguous arrays of one shape: the products are
those of the broadcast, bit for bit, without a broadcast's per-row cost.

Rows that are zero in every sample of a batch on both sides are not
computed at all. ``predict_batch`` trims the leading run of such rows (under
the dual mask, at least the ``t_max - 2**cutoff_exponent`` rows the temporal
cutoff removes) and passes their count, ``lead``, down the blocks. Their
effect has a closed form: as keys they are zero logits that still take
softmax mass (``softmax_rows(..., lead)``), and as rows they count in the
average pool's divisor and bound the max pool below at 0. The outputs equal
those of the untrimmed arrays up to floating-point summation order, and
bit for bit when no leading row is dead. A side whose trimmed mask is 1
everywhere gets no mask multiply at all (``x * 1.0 == x``, so that changes
no bit); on dense markets this holds for whole batches.

Memory follows one constant, ``BUDGET_BYTES``, not the batch:
``row_bytes(config)`` bounds what one row costs at the peak of a training
step, and ``slice_rows(config)`` is how many rows fit in the budget.
Training runs each minibatch in slices of that many rows, and
``score_batch``, the scoring entry point, runs ``predict_batch`` in chunks
of that many rows on constant views of the parameters, so no graph is kept.

Training and scoring compute in ``COMPUTE_DTYPE`` (float32): the tensor
engine follows its inputs' dtype, and ``train`` and ``score_batch`` cast
the weights and the encoded arrays to it. Everything around them stays
float64: ``encode_samples``' arrays, checkpoints (a float32 value
round-trips exactly through float64 text) and scored forecasts.

Ablation switches cover: mask variants, zero interaction degrees (the
projected sides are pooled with no cross-attention: the no-fusion arm),
aggregation without the residual sum or with concatenation, max pooling,
and the multi / single head alternatives.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .market import MarketConfig, RobustScaler, Sample
from .masking import MASK_VARIANTS, build_dual_mask, pad_side

__all__ = [
    "CHECKPOINT_MAGIC",
    "QUANTILES_DEFAULT",
    "ModelConfig",
    "ModelParams",
    "EncodedBatch",
    "init_params",
    "encode_samples",
    "input_project",
    "cross_attention_fuse",
    "fusion_stack",
    "aggregate_and_pool",
    "hierarchical_head",
    "predict_batch",
    "score_batch",
    "BUDGET_BYTES",
    "row_bytes",
    "slice_rows",
    "COMPUTE_DTYPE",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = "ORDERFUSION.v1"

QUANTILES_DEFAULT = (0.10, 0.25, 0.45, 0.50, 0.55, 0.75, 0.90)

AGGREGATION_VARIANTS = ("residual", "no_residual", "concat")
POOLING_VARIANTS = ("avg", "max")
HEAD_VARIANTS = ("hierarchical", "multi", "single")

_INIT_STREAM = 101
_MASK_STREAM = 202

# What ``train`` and ``score_batch`` compute in. Float32 halves the bytes of
# every activation and runs the matmuls about twice as fast as float64.
COMPUTE_DTYPE = np.float32

# The bytes one training slice or scoring chunk may take, by ``row_bytes``.
# At the acceptance shape (H=8, t_max=32, k=1) a 512-row batch stays one
# slice under every mask variant: 20 KB a row under the dual mask, 47 KB
# (537 rows) where no cutoff trims rows. A 128-row batch of the paper-like
# shape (H=64, t_max=128, k=2: 905 KB a row) runs as 5 slices of 25-26 rows.
BUDGET_BYTES = 24 * 2**20


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 8
    interaction_degree: int = 2
    cutoff_exponent: int = 4
    t_max: int = 32
    quantiles: tuple = QUANTILES_DEFAULT
    mask_variant: str = "dual"
    aggregation_variant: str = "residual"
    pooling_variant: str = "avg"
    head_variant: str = "hierarchical"
    head_tau: float = 0.50
    seed: int = 0

    def __post_init__(self):
        if self.hidden_dim <= 0:
            raise ValueError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.interaction_degree < 0:
            raise ValueError(f"interaction_degree must be >= 0, got {self.interaction_degree}")
        if self.cutoff_exponent < 0:
            raise ValueError("cutoff_exponent must be >= 0")
        if 2 ** self.cutoff_exponent > self.t_max:
            raise ValueError(
                f"cutoff_exponent {self.cutoff_exponent}: 2^{self.cutoff_exponent} exceeds "
                f"t_max {self.t_max}"
            )
        q = tuple(self.quantiles)
        if any(b <= a for a, b in zip(q, q[1:])):
            raise ValueError("quantiles must be strictly increasing")
        if 0.50 not in q:
            raise ValueError("quantiles must contain the median 0.50")
        if not 0.0 < self.head_tau < 1.0:
            raise ValueError("head_tau must lie in (0, 1)")
        for name, value, allowed in [
            ("mask_variant", self.mask_variant, MASK_VARIANTS),
            ("aggregation_variant", self.aggregation_variant, AGGREGATION_VARIANTS),
            ("pooling_variant", self.pooling_variant, POOLING_VARIANTS),
            ("head_variant", self.head_variant, HEAD_VARIANTS),
        ]:
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        object.__setattr__(self, "quantiles", q)

    @property
    def head_quantiles(self) -> tuple:
        if self.head_variant == "single":
            return (self.head_tau,)
        return self.quantiles

    @property
    def head_width(self) -> int:
        if self.aggregation_variant == "concat":
            return 2 * self.hidden_dim
        return self.hidden_dim

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["quantiles"] = list(self.quantiles)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["quantiles"] = tuple(d.get("quantiles", QUANTILES_DEFAULT))
        return cls(**d)


class ModelParams:
    """Ordered, uniquely named parameter set.

    The values of all parameters live in one flat buffer and their
    gradients in another, in parameter order; each parameter's value and
    gradient are views into them. So ``zero_grad`` is one fill, an
    optimizer can step every parameter with one array op per formula
    (``data``, ``grad``), and ``state_arrays`` is one copy. ``add``
    rebuilds both buffers, so it is for building the set, not for a set in
    training.
    """

    def __init__(self):
        self._params: dict[str, T.Parameter] = {}
        self.data = np.zeros(0)
        self.grad = np.zeros(0)

    def add(self, name: str, values) -> T.Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = T.Parameter(name, values)
        self._params[name] = p
        self._bind(np.concatenate([q.value.data.ravel() for q in self]),
                   np.concatenate([q.value.grad.ravel() for q in self]))
        return p

    def _bind(self, data: np.ndarray, grad: np.ndarray) -> None:
        """Make ``data`` and ``grad`` the flat buffers, and each parameter's
        value and gradient the views of its span of them."""
        self.data, self.grad = data, grad
        values, grads = self.views(data), self.views(grad)
        for name, p in self._params.items():
            p.value.data, p.value.grad = values[name], grads[name]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's span of ``flat``, a buffer laid out as ``data``,
        as a view of the parameter's shape."""
        out, start = {}, 0
        for name, p in self._params.items():
            shape = p.value.data.shape
            stop = start + p.value.data.size
            out[name] = flat[start:stop].reshape(shape)
            start = stop
        return out

    def __getitem__(self, name: str) -> T.Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    @property
    def names(self) -> list[str]:
        return list(self._params)

    def n_scalars(self) -> int:
        return sum(p.value.data.size for p in self)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def astype(self, dtype) -> "ModelParams":
        """A new set holding these values in ``dtype``, with zero gradients;
        the value buffer is shared, not copied, when it is already in ``dtype``."""
        out = ModelParams()
        data = self.data.astype(dtype, copy=False)
        for name, values in self.views(data).items():
            out._params[name] = T.Parameter(name, values)
        out._bind(data, np.zeros_like(data))
        return out

    def frozen(self, dtype=None) -> "ModelParams":
        """The arrays behind constant tensors: a forward pass over the view
        records no graph and keeps no backward closure. With ``dtype`` each
        array is cast to it; an array already in that dtype, or every array
        when ``dtype`` is None, is shared, not copied. The view has no flat
        buffers of its own: it is for forward passes only."""
        view = ModelParams()
        for name, p in self._params.items():
            values = p.value.data if dtype is None else p.value.data.astype(dtype, copy=False)
            const = T.Parameter.__new__(T.Parameter)
            const.name, const.value = name, T.constant(values)
            view._params[name] = const
        return view

    def state_arrays(self) -> dict[str, np.ndarray]:
        """A copy of every value, as views of one copy of ``data``."""
        return self.views(self.data.copy())

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self._params):
            missing = set(self._params) ^ set(arrays)
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        for name, p in self._params.items():
            if p.value.data.shape != arrays[name].shape:
                raise ValueError(f"shape mismatch for {name}: {p.value.data.shape} vs "
                                 f"{arrays[name].shape}")
        np.concatenate([np.ravel(arrays[name]) for name in self._params], out=self.data)


def _head_name(tau: float) -> str:
    return f"head.q{int(round(tau * 100)):02d}"


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform (fan_in, fan_out) weights."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(config: ModelConfig) -> ModelParams:
    """Create all weights, Glorot-uniform from the config seed; biases 0."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _INIT_STREAM]))
    params = ModelParams()
    dim = config.hidden_dim
    for side in ("buy", "sell"):
        params.add(f"proj.{side}.w", _glorot(rng, 3, dim))
        params.add(f"proj.{side}.b", np.zeros((1, dim)))
    for k in range(1, config.interaction_degree + 1):
        for side in ("buy", "sell"):
            params.add(f"fuse{k}.{side}.wq", _glorot(rng, dim, dim))
            params.add(f"fuse{k}.{side}.wk", _glorot(rng, dim, dim))
            params.add(f"fuse{k}.{side}.wv", _glorot(rng, dim, dim))
    width = config.head_width
    for tau in config.head_quantiles:
        params.add(f"{_head_name(tau)}.w", _glorot(rng, width, 1))
        params.add(f"{_head_name(tau)}.b", np.zeros((1, 1)))
    return params


# ---------------------------------------------------------------------------
# encoding scaled samples into fixed-shape arrays
# ---------------------------------------------------------------------------


@dataclass
class EncodedBatch:
    """Padded, masked, model-ready arrays for a list of samples."""

    buy: np.ndarray          # (n, t_max, 3)
    sell: np.ndarray         # (n, t_max, 3)
    mask_buy: np.ndarray     # (n, t_max, 1)
    mask_sell: np.ndarray    # (n, t_max, 1)
    labels: np.ndarray       # (n, 1), scaled space
    delivery_starts: list

    def __len__(self):
        return self.buy.shape[0]

    def astype(self, dtype) -> "EncodedBatch":
        """The same rows with every array in ``dtype``."""
        return dataclasses.replace(self, **{
            name: getattr(self, name).astype(dtype)
            for name in ("buy", "sell", "mask_buy", "mask_sell", "labels")})


def encode_samples(samples: list[Sample], config: ModelConfig) -> EncodedBatch:
    """Pad and mask scaled samples into stacked arrays, a whole side per call.

    Random-mask draws derive from the config seed, one (n, 2, t_max) draw
    for the whole batch (sample by sample, buy side then sell side), so
    encoding is deterministic per (samples, config).
    """
    n, t_max, alpha = len(samples), config.t_max, config.cutoff_exponent
    draws = (None, None)
    if config.mask_variant == "random":
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _MASK_STREAM]))
        draws = rng.uniform(0.0, 1.0, size=(n, 2, t_max)).transpose(1, 0, 2)
    buy, valid_buy = pad_side([s.buy_matrix for s in samples], t_max)
    sell, valid_sell = pad_side([s.sell_matrix for s in samples], t_max)
    mask_buy = build_dual_mask(valid_buy, t_max, alpha, config.mask_variant, draws[0]).combined
    mask_sell = build_dual_mask(valid_sell, t_max, alpha, config.mask_variant, draws[1]).combined
    return EncodedBatch(
        buy=buy,
        sell=sell,
        mask_buy=mask_buy.reshape(n, t_max, 1),
        mask_sell=mask_sell.reshape(n, t_max, 1),
        labels=np.array([s.label for s in samples], dtype=np.float64).reshape(n, 1),
        delivery_starts=[s.delivery_start for s in samples],
    )


# ---------------------------------------------------------------------------
# network blocks
# ---------------------------------------------------------------------------


def input_project(side_matrix: T.Tensor, w: T.Tensor, b: T.Tensor | None,
                  mask: T.Tensor | None) -> T.Tensor:
    """Row-wise 3 -> hidden linear map, swish, then mask multiply (none
    when ``mask`` is None, meaning 1 everywhere)."""
    out = T.matmul(side_matrix, w)
    if b is not None:
        out = out + b
    return _masked(T.swish(out), mask)


def cross_attention_fuse(
    query_side: T.Tensor,
    other_side: T.Tensor,
    w_query: T.Tensor,
    w_key: T.Tensor,
    w_value: T.Tensor,
    mask_q: T.Tensor | None,
    lead: int = 0,
) -> T.Tensor:
    """Scaled dot-product attention of one side over the other.

    Queries come from ``query_side``; keys and values from ``other_side``.
    Inputs are already masked; the output is re-masked with the query
    side's mask (None: 1 everywhere, no multiply). Attention logits carry
    no extra masking, so zeroed key rows contribute uniform terms to the
    softmax denominator. ``lead`` counts zero rows trimmed from the front
    of both sides: they are not computed, but as keys their zero logits
    keep their softmax mass in closed form (their values are zero, so they
    add nothing else).
    """
    hidden = w_query.data.shape[-1]
    # nested, so that without a graph the queries, keys and logits are freed
    # as soon as they are used
    weights = T.softmax_rows(
        T.matmul(T.matmul(query_side, w_query), T.transpose(T.matmul(other_side, w_key))),
        1.0 / math.sqrt(hidden), lead)
    return _masked(T.matmul(weights, T.matmul(other_side, w_value)), mask_q)


def _masked(rows: T.Tensor, mask: T.Tensor | None) -> T.Tensor:
    return rows if mask is None else rows * mask


def fusion_stack(
    buy: T.Tensor,
    sell: T.Tensor,
    params: ModelParams,
    mask_buy: T.Tensor | None,
    mask_sell: T.Tensor | None,
    degrees: int,
    lead: int = 0,
) -> list[tuple[T.Tensor, T.Tensor]]:
    """Iterate the buy/sell cross-attention for the requested degrees.

    Both sides at degree k read only degree k-1 representations. ``lead``
    is the number of zero rows trimmed from the front of both sides. The
    inputs are not kept: without a graph they are freed after degree 1
    unless the caller holds them.
    """
    if degrees < 1:
        raise ValueError("fusion_stack needs at least one degree")
    pairs = []
    for k in range(1, degrees + 1):
        buy, sell = (
            cross_attention_fuse(
                buy, sell,
                params[f"fuse{k}.buy.wq"].value,
                params[f"fuse{k}.sell.wk"].value,
                params[f"fuse{k}.sell.wv"].value,
                mask_buy, lead,
            ),
            cross_attention_fuse(
                sell, buy,
                params[f"fuse{k}.sell.wq"].value,
                params[f"fuse{k}.buy.wk"].value,
                params[f"fuse{k}.buy.wv"].value,
                mask_sell, lead,
            ),
        )
        pairs.append((buy, sell))
    return pairs


def aggregate_and_pool(
    pairs: list[tuple[T.Tensor, T.Tensor]],
    aggregation_variant: str = "residual",
    pooling_variant: str = "avg",
    lead: int = 0,
) -> T.Tensor:
    """Combine per-degree pairs and pool rows into one vector per sample.

    ``lead`` zero rows trimmed from the front still count in the pool.
    """
    if not pairs:
        raise ValueError("aggregate_and_pool needs at least one degree pair")
    if aggregation_variant == "residual":
        combined = None
        for cb, cs in pairs:
            term = cb + cs
            combined = term if combined is None else combined + term
    elif aggregation_variant == "no_residual":
        cb, cs = pairs[-1]
        combined = cb + cs
    elif aggregation_variant == "concat":
        combined = None
        for cb, cs in pairs:
            term = T.concat_cols(cb, cs)
            combined = term if combined is None else combined + term
    else:
        raise ValueError(f"unknown aggregation variant {aggregation_variant!r}")
    if pooling_variant == "avg":
        return T.mean_rows(combined, lead)
    if pooling_variant == "max":
        return T.max_rows(combined, lead)
    raise ValueError(f"unknown pooling variant {pooling_variant!r}")


def hierarchical_head(
    pooled: T.Tensor,
    params: ModelParams,
    head_variant: str = "hierarchical",
    quantiles: tuple = QUANTILES_DEFAULT,
    head_tau: float = 0.50,
) -> T.Tensor:
    """Map the pooled vector to quantile outputs, (batch, n_quantiles).

    hierarchical  median from its own dense layer; each further quantile
                  adds (upper) or subtracts (lower) a |dense| residual to
                  its neighbor, so outputs never cross
    multi         independent dense outputs, crossing possible
    single        one dense output for ``head_tau``
    """

    def dense(tau):
        return T.matmul(pooled, params[f"{_head_name(tau)}.w"].value) + params[f"{_head_name(tau)}.b"].value

    if head_variant == "single":
        return dense(head_tau)

    q = tuple(quantiles)
    if head_variant == "multi":
        out = dense(q[0])
        for tau in q[1:]:
            out = T.concat_cols(out, dense(tau))
        return out

    if head_variant == "hierarchical":
        mid = q.index(0.50)
        outputs = {0.50: dense(0.50)}
        for i in range(mid + 1, len(q)):
            outputs[q[i]] = outputs[q[i - 1]] + T.abs_(dense(q[i]))
        for i in range(mid - 1, -1, -1):
            outputs[q[i]] = outputs[q[i + 1]] - T.abs_(dense(q[i]))
        out = outputs[q[0]]
        for tau in q[1:]:
            out = T.concat_cols(out, outputs[tau])
        return out

    raise ValueError(f"unknown head variant {head_variant!r}")


def predict_batch(
    params: ModelParams,
    config: ModelConfig,
    buy: np.ndarray,
    sell: np.ndarray,
    mask_buy: np.ndarray,
    mask_sell: np.ndarray,
) -> T.Tensor:
    """Full forward pass over a batch of encoded arrays, in scaled space.

    At ``interaction_degree`` 0 the projected sides are pooled as the one
    pair. The leading rows that every sample masks out on both sides are
    trimmed before any op and accounted for in closed form, and a trimmed
    mask of all ones is not multiplied (see the module doc).
    """
    lead = _dead_lead(mask_buy, mask_sell)
    tb = T.constant(buy[:, lead:])
    ts = T.constant(sell[:, lead:])
    mb = _mask_node(mask_buy[:, lead:], config.hidden_dim)
    ms = _mask_node(mask_sell[:, lead:], config.hidden_dim)
    project = lambda side, rows, mask: input_project(
        rows, params[f"proj.{side}.w"].value, params[f"proj.{side}.b"].value, mask)
    if config.interaction_degree == 0:
        pairs = [(project("buy", tb, mb), project("sell", ts, ms))]
    else:   # passed, not held, so that without a graph fusion_stack frees them
        pairs = fusion_stack(project("buy", tb, mb), project("sell", ts, ms),
                             params, mb, ms, config.interaction_degree, lead)
    pooled = aggregate_and_pool(pairs, config.aggregation_variant, config.pooling_variant, lead)
    return hierarchical_head(pooled, params, config.head_variant, config.quantiles, config.head_tau)


def row_bytes(config: ModelConfig) -> int:
    """An upper bound on the bytes one row takes at the peak of a training
    step in ``COMPUTE_DTYPE``, from the config alone.

    A row's features and masks are indexed out of the split, (t_max, 4) a
    side. It then computes ``t`` rows a side: ``2**cutoff_exponent`` under
    the dual mask, whose cutoff makes the rest dead leading rows that
    ``predict_batch`` trims, else ``t_max``. Each side's graph keeps about
    3 (t, H) arrays from the projection and, per degree, 4 (t, H) arrays
    and the (t, t) attention weights. The graph term is counted twice,
    although backward frees each node's arrays as it runs: the second copy
    is headroom kept so that slice and chunk boundaries do not move. When
    there is a degree, it adds the (H, H) weight gradients that a batched
    matmul forms for every row before summing them. The bound sits
    1.3-2.4x above tracemalloc's peak per row on the shapes
    ``tests/test_model.py`` measures.
    """
    t = 2 ** config.cutoff_exponent if config.mask_variant == "dual" else config.t_max
    h, k = config.hidden_dim, config.interaction_degree
    graph = 2 * (3 * t * h + k * (4 * t * h + t * t))
    weight_grads = 3 * h * h if k else 0
    return (2 * 4 * config.t_max + 2 * graph + weight_grads) * np.dtype(COMPUTE_DTYPE).itemsize


def slice_rows(config: ModelConfig) -> int:
    """Rows per training slice and per scoring chunk: as many as
    ``BUDGET_BYTES`` holds at ``row_bytes`` each, and at least one."""
    return max(1, BUDGET_BYTES // row_bytes(config))


def score_batch(params: ModelParams, config: ModelConfig, batch: EncodedBatch) -> np.ndarray:
    """Forecasts for every row of ``batch`` in scaled space, (n, quantiles),
    as float64.

    ``predict_batch`` over a frozen ``COMPUTE_DTYPE`` copy of ``params``,
    ``slice_rows(config)`` rows at a time, each chunk cast to that dtype, so
    scoring keeps no graph, leaves every gradient alone and holds one
    chunk's activations at most. Each chunk trims its own dead leading
    rows, so past one chunk the last bits can differ from a single pass;
    up to one chunk the result is that pass's, bit for bit.
    """
    frozen = params.frozen(COMPUTE_DTYPE)
    arrays = (batch.buy, batch.sell, batch.mask_buy, batch.mask_sell)
    step = slice_rows(config)
    return np.concatenate([
        predict_batch(frozen, config,
                      *(a[i:i + step].astype(COMPUTE_DTYPE, copy=False) for a in arrays)).data
        for i in range(0, max(len(batch), 1), step)    # no rows: one empty chunk
    ]).astype(np.float64)


def _mask_node(mask: np.ndarray, width: int) -> T.Tensor | None:
    """A (n, t, 1) ``mask`` repeated to (n, t, ``width``) as a constant, or
    None where it is 1 everywhere (not merely non-zero: the random variant
    holds other values). The repeat is made once per batch, so each mask
    multiply runs on two contiguous operands of one shape, with the same
    products as the broadcast."""
    if (mask == 1).all():
        return None
    return T.constant(np.broadcast_to(mask, mask.shape[:-1] + (width,)).copy())


def _dead_lead(mask_buy: np.ndarray, mask_sell: np.ndarray) -> int:
    """Leading rows whose buy and sell masks are 0 in every sample; at
    least one row is always kept."""
    live = np.flatnonzero((mask_buy != 0).any(axis=(0, 2)) | (mask_sell != 0).any(axis=(0, 2)))
    return int(live[0]) if live.size else mask_buy.shape[1] - 1


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(
    path,
    config: ModelConfig,
    params: ModelParams,
    feature_scaler: RobustScaler,
    label_scaler: RobustScaler,
    market: MarketConfig,
    best_epoch: int,
) -> None:
    """Write a self-describing JSON checkpoint: the config (the seed among
    its fields), the market trained on (``index`` and ``delta_c_minutes``),
    the best epoch, the scalers and every named weight array. Floats
    round-trip exactly."""
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "config": config.to_dict(),
        "market": {"index": market.index_x, "delta_c_minutes": market.delta_c_minutes},
        "best_epoch": best_epoch,
        "feature_scaler": feature_scaler.to_dict(),
        "label_scaler": label_scaler.to_dict(),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in params.state_arrays().items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))   # json.dump never uses the C encoder
        fh.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (config, params, feature_scaler,
    label_scaler, market), ``market`` the :class:`MarketConfig` it was
    trained on. A missing or malformed market is a ValueError: one that is
    not an object, a field that is not an int, or values ``MarketConfig``
    rejects."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    magic = payload.get("magic") if isinstance(payload, dict) else None
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint (magic {magic!r})")
    market = payload.get("market")
    if not isinstance(market, dict) or any(type(market.get(k)) is not int
                                           for k in ("index", "delta_c_minutes")):
        raise ValueError(f"market is {market!r}, not an object of the integers index and "
                         "delta_c_minutes")
    market = MarketConfig(index_x=market["index"], delta_c_minutes=market["delta_c_minutes"])
    config = ModelConfig.from_dict(payload["config"])
    params = init_params(config)
    params.load_arrays({
        name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    })
    return (
        config,
        params,
        RobustScaler.from_dict(payload["feature_scaler"]),
        RobustScaler.from_dict(payload["label_scaler"]),
        market,
    )
