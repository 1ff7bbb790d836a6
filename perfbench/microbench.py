"""Block microbench and exact per-step op counts at one model shape.

Inputs are fixed-seed synthetic scaled samples encoded with the package's
own ``encode_samples``, so the arrays, masks and op graph are the same on
every run. Block timings run with no tracer installed; the op table comes
from a second pass of whole training steps with the tensor layer traced.
"""

from __future__ import annotations

import statistics
import time
from datetime import datetime, timedelta, timezone

import numpy as np

from tracing import Tracer, load_modules

TENSOR_OPS = ("matmul", "softmax_rows", "swish", "transpose", "concat_cols", "mean_rows",
              "abs_", "maximum", "mean_all", "elementwise")
_NOT_OPS = ("tensor.constant", "tensor.backward")
_INPUT_SEED = 20250206


def _repeat(fn, min_reps=3, max_reps=20, budget_s=1.0) -> list[float]:
    """Seconds per call, repeating until ``budget_s`` is spent (within the rep bounds)."""
    times: list[float] = []
    spent = 0.0
    while len(times) < min_reps or (len(times) < max_reps and spent < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return times


def _ms(times) -> float:
    return statistics.median(times) * 1e3


def _samples(n: int, t_max: int, seed: int):
    from orderfusion.market import Sample

    rng = np.random.default_rng(seed)
    t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
    out = []
    for i in range(n):
        delivery = t0 + timedelta(hours=i)
        sides = [rng.normal(size=(int(rng.integers(1, 2 * t_max)), 3)) for _ in range(2)]
        out.append(Sample(delivery_start=delivery, buy_matrix=sides[0], sell_matrix=sides[1],
                          label=float(rng.normal()), forecast_time=delivery - timedelta(hours=1)))
    return out


def run(hidden_dim: int, degree: int, alpha: int, t_max: int, batch: int) -> tuple[dict, int]:
    """Block and op metrics at one shape, plus the number of whole steps timed."""
    from orderfusion import tensor as T
    from orderfusion.model import (ModelConfig, aggregate_and_pool, encode_samples,
                                   fusion_stack, hierarchical_head, init_params, input_project,
                                   predict_batch)
    from orderfusion.training import OptimizerState, TrainConfig, adam_step, aql_loss

    config = ModelConfig(hidden_dim=hidden_dim, interaction_degree=degree,
                         cutoff_exponent=alpha, t_max=t_max, seed=0)
    params = init_params(config)
    state = OptimizerState.for_params(params)
    enc = encode_samples(_samples(batch, t_max, _INPUT_SEED), config)
    tb, ts = T.constant(enc.buy), T.constant(enc.sell)
    mb, ms = T.constant(enc.mask_buy), T.constant(enc.mask_sell)
    labels = T.constant(enc.labels)
    bias = lambda side: params[f"proj.{side}.b"].value if f"proj.{side}.b" in params else None

    def leaf(t):
        return T.Tensor(t.data.copy(), requires_grad=True)

    def project():
        return [input_project(tb, params["proj.buy.w"].value, bias("buy"), mb),
                input_project(ts, params["proj.sell.w"].value, bias("sell"), ms)]

    proj = project()
    pairs = fusion_stack(proj[0], proj[1], params, mb, ms, degree)
    pooled = aggregate_and_pool(pairs, config.aggregation_variant, config.pooling_variant)
    pred = hierarchical_head(pooled, params, config.head_variant, config.quantiles, config.head_tau)

    def fuse():
        pb, ps = leaf(proj[0]), leaf(proj[1])
        return lambda: [t for pair in fusion_stack(pb, ps, params, mb, ms, degree) for t in pair]

    def pool():
        leaves = [(leaf(b), leaf(s)) for b, s in pairs]
        return lambda: [aggregate_and_pool(leaves, config.aggregation_variant,
                                           config.pooling_variant)]

    def head():
        p = leaf(pooled)
        return lambda: [hierarchical_head(p, params, config.head_variant, config.quantiles,
                                          config.head_tau)]

    def loss():
        p = leaf(pred)
        return lambda: [aql_loss(p, labels, config.head_quantiles)]

    forwards = {
        "model.input_project": lambda: project,
        "model.cross_attention_fuse": fuse,
        "model.aggregate_and_pool": pool,
        "model.hierarchical_head": head,
        "training.aql_loss": loss,
    }
    def scalar(outs):
        total = outs[0] if outs[0].data.size == 1 else T.mean_all(outs[0])
        for o in outs[1:]:
            total = total + T.mean_all(o)
        return total

    metrics: dict[str, float] = {}
    for name, make in forwards.items():
        forward = make()
        fwd, bwd = [], []
        while len(fwd) < 3 or (len(fwd) < 20 and sum(fwd) + sum(bwd) < 1.0):
            params.zero_grad()
            t0 = time.perf_counter()
            outs = forward()
            fwd.append(time.perf_counter() - t0)
            total = scalar(outs)
            t0 = time.perf_counter()
            T.backward(total)
            bwd.append(time.perf_counter() - t0)
        metrics[f"{name}.fwd_ms"] = _ms(fwd)
        metrics[f"{name}.bwd_ms"] = _ms(bwd)

    cfg = TrainConfig(seed=0)
    metrics["model.predict_batch.ms_per_batch"] = _ms(_repeat(
        lambda: predict_batch(params, config, enc.buy, enc.sell, enc.mask_buy, enc.mask_sell)))
    metrics["training.adam_step.ms"] = _ms(_repeat(lambda: adam_step(params, state, 1e-5, cfg)))

    # Whole training steps with the tensor layer traced: per-op time, exact
    # op counts and bytes of op outputs.
    step_bytes = [0]

    def count_bytes(name, result):
        if name not in _NOT_OPS and isinstance(result, T.Tensor):
            step_bytes[0] += result.data.nbytes

    tracer = Tracer(on_result=count_bytes)
    tracer.install(load_modules(("tensor",)))
    try:
        def step():
            params.zero_grad()
            out = predict_batch(params, config, enc.buy, enc.sell, enc.mask_buy, enc.mask_sell)
            T.backward(aql_loss(out, labels, config.head_quantiles))
            adam_step(params, state, 1e-5, cfg)

        step_times = _repeat(step, budget_s=3.0)
    finally:
        tracer.uninstall()
    steps = len(step_times)
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    backward_ms = []
    for name, start, end, _ in tracer.spans:
        if name == "tensor.backward":
            backward_ms.append((end - start) * 1e3)
            continue
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + end - start
    ops = sum(n for name, n in calls.items() if name not in _NOT_OPS)
    metrics["tensor.ops_per_step"] = ops / steps
    metrics["tensor.activation_mb_per_step"] = step_bytes[0] / steps / 1e6
    metrics["tensor.backward.ms_per_step.p50"] = statistics.median(backward_ms)
    metrics["tensor.backward.ms_per_step.p90"] = float(np.percentile(backward_ms, 90))
    for op in TENSOR_OPS:
        metrics[f"tensor.{op}.ms_per_step"] = seconds.get(f"tensor.{op}", 0.0) / steps * 1e3
        metrics[f"tensor.{op}.calls_per_step"] = calls.get(f"tensor.{op}", 0) / steps
    return metrics, steps
