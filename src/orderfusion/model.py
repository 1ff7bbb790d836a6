"""The buy/sell fusion forecaster.

Pipeline per sample: project each padded side into the hidden space,
iteratively cross-attend buy against sell (and vice versa) for the
configured number of interaction degrees, aggregate the per-degree
representations, pool over time, and emit multiple quantiles through a
non-crossing hierarchical head. Every intermediate row representation is
multiplied by that side's combined mask, so padded or cut-off rows stay
exactly zero.

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

``score_batch`` is the scoring entry point: it runs ``predict_batch`` on
constant views of the parameters, so no graph is kept, in chunks of
``SCORE_CHUNK_ROWS`` rows, so its memory does not grow with the row count.

Ablation switches cover: mask variants, removing fusion entirely (pooled
raw sides feed the heads), aggregation without the residual sum or with
concatenation, max pooling, and the multi / single head alternatives.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .market import RobustScaler, Sample
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
    "SCORE_CHUNK_ROWS",
    "param_count",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = "ORDERFUSION.v1"

QUANTILES_DEFAULT = (0.10, 0.25, 0.45, 0.50, 0.55, 0.75, 0.90)

FUSION_VARIANTS = ("fusion", "no_fusion")
AGGREGATION_VARIANTS = ("residual", "no_residual", "concat")
POOLING_VARIANTS = ("avg", "max")
HEAD_VARIANTS = ("hierarchical", "multi", "single")

_INIT_STREAM = 101
_MASK_STREAM = 202

# Rows per forward pass of ``score_batch``; the default training batch size.
SCORE_CHUNK_ROWS = 512


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 8
    interaction_degree: int = 2
    cutoff_exponent: int = 4
    t_max: int = 32
    quantiles: tuple = QUANTILES_DEFAULT
    mask_variant: str = "dual"
    fusion_variant: str = "fusion"
    aggregation_variant: str = "residual"
    pooling_variant: str = "avg"
    head_variant: str = "hierarchical"
    head_tau: float = 0.50
    projection_bias: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.hidden_dim <= 0:
            raise ValueError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.interaction_degree < 1:
            raise ValueError("interaction_degree must be >= 1")
        if self.cutoff_exponent < 0:
            raise ValueError("cutoff_exponent must be >= 0")
        if 2 ** self.cutoff_exponent > self.t_max:
            raise ValueError(
                f"cutoff 2^{self.cutoff_exponent} exceeds t_max {self.t_max}"
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
            ("fusion_variant", self.fusion_variant, FUSION_VARIANTS),
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
        if self.fusion_variant == "no_fusion":
            return 6
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
    """Ordered, uniquely named parameter set."""

    def __init__(self):
        self._params: dict[str, T.Parameter] = {}

    def add(self, name: str, values) -> T.Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = T.Parameter(name, values)
        self._params[name] = p
        return p

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
        for p in self:
            p.zero_grad()

    def frozen(self) -> "ModelParams":
        """The same arrays, uncopied, behind constant tensors: a forward pass
        over the view records no graph and keeps no backward closure."""
        view = ModelParams()
        for name, p in self._params.items():
            const = T.Parameter.__new__(T.Parameter)
            const.name, const.value = name, T.constant(p.value.data)
            view._params[name] = const
        return view

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.value.data.copy() for name, p in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self._params):
            missing = set(self._params) ^ set(arrays)
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        for name, arr in arrays.items():
            p = self._params[name]
            if p.value.data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {p.value.data.shape} vs {arr.shape}")
            p.value.data = np.array(arr, dtype=np.float64)


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
    if config.fusion_variant == "fusion":
        for side in ("buy", "sell"):
            params.add(f"proj.{side}.w", _glorot(rng, 3, dim))
            if config.projection_bias:
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


def param_count(config: ModelConfig) -> int:
    """Number of trainable scalars the config registers."""
    dim = config.hidden_dim
    n = 0
    if config.fusion_variant == "fusion":
        n += 2 * 3 * dim
        if config.projection_bias:
            n += 2 * dim
        n += 2 * config.interaction_degree * 3 * dim * dim
    n += len(config.head_quantiles) * (config.head_width + 1)
    return n


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


def encode_samples(samples: list[Sample], config: ModelConfig) -> EncodedBatch:
    """Pad and mask scaled samples into stacked arrays.

    Random-mask draws derive from the config seed, one stream for the whole
    batch (buy side, then sell side, sample by sample), so encoding is
    deterministic per (samples, config).
    """
    rng = None
    if config.mask_variant == "random":
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _MASK_STREAM]))
    buys, sells, mbs, mss = [], [], [], []
    for s in samples:
        for rows, sides, masks in ((s.buy_matrix, buys, mbs), (s.sell_matrix, sells, mss)):
            padded = pad_side(rows, config.t_max)
            sides.append(padded.matrix)
            masks.append(build_dual_mask(padded, config.cutoff_exponent, config.mask_variant, rng).combined)
    n = len(samples)
    shape = (n, config.t_max, 3)
    return EncodedBatch(
        buy=np.array(buys).reshape(shape),
        sell=np.array(sells).reshape(shape),
        mask_buy=np.array(mbs).reshape(n, config.t_max, 1),
        mask_sell=np.array(mss).reshape(n, config.t_max, 1),
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
    return _pool(combined, pooling_variant, lead)


def _pool(rows: T.Tensor, pooling_variant: str, lead: int) -> T.Tensor:
    if pooling_variant == "avg":
        return T.mean_rows(rows, lead)
    if pooling_variant == "max":
        return T.max_rows(rows, lead)
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

    The leading rows that every sample masks out on both sides are trimmed
    before any op and accounted for in closed form, and a trimmed mask of
    all ones is not multiplied (see the module doc).
    """
    lead = _dead_lead(mask_buy, mask_sell)
    tb = T.constant(buy[:, lead:])
    ts = T.constant(sell[:, lead:])
    mb = _mask_node(mask_buy[:, lead:])
    ms = _mask_node(mask_sell[:, lead:])
    if config.fusion_variant == "no_fusion":
        pooled = _pool(T.concat_cols(_masked(tb, mb), _masked(ts, ms)), config.pooling_variant, lead)
    else:
        pairs = fusion_stack(
            input_project(tb, params["proj.buy.w"].value,
                          params["proj.buy.b"].value if "proj.buy.b" in params else None, mb),
            input_project(ts, params["proj.sell.w"].value,
                          params["proj.sell.b"].value if "proj.sell.b" in params else None, ms),
            params, mb, ms, config.interaction_degree, lead)
        pooled = aggregate_and_pool(pairs, config.aggregation_variant, config.pooling_variant, lead)
    return hierarchical_head(pooled, params, config.head_variant, config.quantiles, config.head_tau)


def score_batch(params: ModelParams, config: ModelConfig, batch: EncodedBatch) -> np.ndarray:
    """Forecasts for every row of ``batch`` in scaled space, (n, quantiles).

    ``predict_batch`` over ``params.frozen()``, ``SCORE_CHUNK_ROWS`` rows at
    a time, so scoring keeps no graph, leaves every gradient alone and holds
    one chunk's activations at most. Each chunk trims its own dead leading
    rows, so past one chunk the last bits can differ from a single pass;
    up to one chunk the result is that pass's, bit for bit.
    """
    frozen = params.frozen()
    step = SCORE_CHUNK_ROWS
    return np.concatenate([
        predict_batch(frozen, config, batch.buy[i:i + step], batch.sell[i:i + step],
                      batch.mask_buy[i:i + step], batch.mask_sell[i:i + step]).data
        for i in range(0, max(len(batch), 1), step)    # no rows: one empty chunk
    ])


def _mask_node(mask: np.ndarray) -> T.Tensor | None:
    """``mask`` as a constant, or None where it is 1 everywhere (not merely
    non-zero: the random variant holds other values)."""
    return None if (mask == 1).all() else T.constant(mask)


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
    extra: dict | None = None,
) -> None:
    """Write a self-describing JSON checkpoint; floats round-trip exactly."""
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "seed": config.seed,
        "config": config.to_dict(),
        "feature_scaler": feature_scaler.to_dict(),
        "label_scaler": label_scaler.to_dict(),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in params.state_arrays().items()
        },
    }
    if extra:
        payload["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True))   # json.dump never uses the C encoder
        fh.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (config, params, feature_scaler,
    label_scaler, extra), ``extra`` being the mapping given to
    :func:`save_checkpoint` (empty when none was)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    magic = payload.get("magic") if isinstance(payload, dict) else None
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint (magic {magic!r})")
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
        payload.get("extra", {}),
    )
