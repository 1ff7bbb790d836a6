"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

The learnability criteria share one seed-fixed synthetic market and a
cache of trained models, so the whole file stays within its runtime caps.
"""

import math
import time
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import combinations

import numpy as np
import pytest

from orderfusion import tensor as T
from orderfusion.baselines import ResidualQuantiles, naive_point, naive_probabilistic
from orderfusion.evaluation import aiw, aql, aqcr, evaluate_forecasts, pointwise, symmetric_pairs
from orderfusion.market import (
    MarketConfig,
    Trades,
    apply_scaler,
    build_dataset,
    compute_index_label,
    fit_scaler,
)
from orderfusion.model import (
    ModelConfig,
    encode_samples,
    init_params,
    predict_batch,
)
from orderfusion.synth import SynthConfig, gen_market
from orderfusion.training import TrainConfig, add_months, pinball, rolling_folds, train

UTC = timezone.utc
QUANTILES = (0.10, 0.25, 0.45, 0.50, 0.55, 0.75, 0.90)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared synthetic market and trained-model cache
# ---------------------------------------------------------------------------

MARKET_MODEL = ModelConfig(hidden_dim=8, interaction_degree=1, cutoff_exponent=4, t_max=32, seed=0)
MARKET_CFG = MarketConfig(index_x=1, delta_c_minutes=30)
LEARNABILITY_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def market():
    """Seed-fixed heteroskedastic market: >= 5000 samples whose labels
    depend on recent trades through the latent mid price."""
    synth_cfg = SynthConfig(seed=11, n_days=260, arrival_rate_per_min=0.15,
                            session_minutes=240, vol_hour_amplitude=0.5)
    trades, _, _ = gen_market(synth_cfg, delta_c_minutes=30, indices=(1,))
    samples, _ = build_dataset(trades, MARKET_CFG)
    ordered = sorted(samples, key=lambda s: s.delivery_start)
    assert len(ordered) >= 5000
    n = len(ordered)
    i, j = int(n * 0.7), int(n * 0.85)
    train_raw, val_raw, test_raw = ordered[:i], ordered[i:j], ordered[j:]
    feat, lab = fit_scaler(train_raw)
    scale = lambda group: [apply_scaler(s, feat, lab) for s in group]
    return {
        "all_raw": ordered,
        "train_raw": train_raw,
        "val_raw": val_raw,
        "test_raw": test_raw,
        "train": scale(train_raw),
        "val": scale(val_raw),
        "test": scale(test_raw),
        "label_scaler": lab,
        "y_test": np.array([s.label for s in test_raw]),
    }


@pytest.fixture(scope="module")
def run_cache():
    return {}


def _trained_forecasts(market, run_cache, seed: int, mask_variant: str):
    """Test-set forecasts in EUR/MWh for one (seed, mask variant) run,
    trained with the default schedule; cached across criteria."""
    key = (seed, mask_variant)
    if key not in run_cache:
        config = replace(MARKET_MODEL, seed=seed, mask_variant=mask_variant)
        started = time.time()
        result = train(config, market["train"], market["val"], TrainConfig(seed=seed))
        batch = encode_samples(market["test"], config)
        pred = predict_batch(result.params, config, batch.buy, batch.sell,
                             batch.mask_buy, batch.mask_sell)
        run_cache[key] = {
            "forecasts": market["label_scaler"].inverse(pred.data),
            "seconds": time.time() - started,
        }
    return run_cache[key]


def _naive1_forecasts(market):
    train_labels = {s.delivery_start: s.label for s in market["train_raw"] + market["val_raw"]}
    all_labels = {s.delivery_start: s.label for s in market["all_raw"]}
    residuals = ResidualQuantiles.fit(train_labels, "prev_hour", MARKET_CFG, QUANTILES)
    forecasts, truth = [], []
    for s in market["test_raw"]:
        point = naive_point(all_labels, s.delivery_start, "prev_hour", MARKET_CFG)
        if point is None or s.delivery_start.hour not in residuals.per_hour:
            continue
        forecasts.append(naive_probabilistic(residuals, point, s.delivery_start.hour))
        truth.append(s.label)
    return np.array(truth), np.array(forecasts)


def _random_encoded_inputs(rng, config, n):
    """Random padded/masked arrays with realistic mask structure."""
    t_max = config.t_max
    cutoff = 2 ** config.cutoff_exponent
    buy = np.full((n, t_max, 3), 10_000.0)
    sell = np.full((n, t_max, 3), 10_000.0)
    mask_buy = np.zeros((n, t_max, 1))
    mask_sell = np.zeros((n, t_max, 1))
    for i in range(n):
        for matrix, mask in ((buy, mask_buy), (sell, mask_sell)):
            valid = int(rng.integers(1, t_max + 1))
            matrix[i, t_max - valid:] = rng.normal(size=(valid, 3))
            keep = min(valid, cutoff)
            mask[i, t_max - keep:, 0] = 1.0
    return buy, sell, mask_buy, mask_sell


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_non_crossing():
    """>= 10,000 random (params, input) draws: quantiles non-decreasing,
    AQCR exactly 0.00%, under a minute."""
    started = time.time()
    config = ModelConfig(hidden_dim=4, interaction_degree=1, cutoff_exponent=3, t_max=16, seed=0)
    rng = np.random.default_rng(2024)
    draws = 0
    violations = 0
    all_outputs = []
    for round_idx in range(50):
        params = init_params(replace(config, seed=round_idx))
        for p in params:
            p.value.data[...] = rng.normal(scale=3.0, size=p.value.data.shape)
        buy, sell, mb, ms = _random_encoded_inputs(rng, config, 200)
        out = predict_batch(params, config, buy, sell, mb, ms).data
        draws += out.shape[0]
        violations += int((np.diff(out, axis=1) < 0).sum())
        all_outputs.append(out)
    measured_aqcr = aqcr(np.vstack(all_outputs))
    elapsed = time.time() - started
    _report(
        "C1 non-crossing",
        draws >= 10_000 and violations == 0 and measured_aqcr == 0.0 and elapsed < 60,
        f"(draws={draws}, violations={violations}, AQCR={measured_aqcr:.2f}%, {elapsed:.1f}s)",
    )


def test_criterion_2_gradient_fidelity():
    """Every parameter of the F=4, K=2, T_max=16 model passes central
    finite differences through forward + AQL, 20 random points."""
    started = time.time()
    config = ModelConfig(hidden_dim=4, interaction_degree=2, cutoff_exponent=3, t_max=16, seed=0)
    step = 1e-5
    worst = 0.0
    checked = 0
    for point in range(20):
        rng = np.random.default_rng(31_000 + point)
        params = init_params(replace(config, seed=point))
        buy, sell, mb, ms = _random_encoded_inputs(rng, config, 3)
        labels = rng.normal(size=(3, 1))

        def loss_value():
            pred = predict_batch(params, config, buy, sell, mb, ms)
            diff = T.constant(labels) - pred
            taus = T.constant(np.array(config.quantiles).reshape(1, -1))
            return T.mean_all(T.maximum(taus * diff, (taus - 1.0) * diff))

        # keep the batch away from pinball kinks so the FD stencil stays
        # on one linear piece
        base_pred = predict_batch(params, config, buy, sell, mb, ms).data
        assert np.abs(labels - base_pred).min() > 10 * step

        params.zero_grad()
        loss = loss_value()
        T.backward(loss)
        for p in params:
            analytic = p.grad.copy()
            flat = p.value.data.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss_value().item()
                flat[idx] = orig - step
                down = loss_value().item()
                flat[idx] = orig
                fd = (up - down) / (2 * step)
                an = analytic.reshape(-1)[idx]
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                worst = max(worst, rel)
                checked += 1
    elapsed = time.time() - started
    _report(
        "C2 gradient fidelity",
        worst <= 1e-4 and elapsed < 120,
        f"(coords={checked}, worst rel err={worst:.2e}, {elapsed:.1f}s)",
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_criterion_3_masking_invariance(dtype):
    """Mutating padded rows or cut-off valid rows never changes the
    forecast, bit for bit, across 1000 trials, in float64 and in float32
    (the dtype training and scoring compute in)."""
    config = ModelConfig(hidden_dim=4, interaction_degree=2, cutoff_exponent=2, t_max=8, seed=7)
    params = init_params(config).astype(dtype)
    rng = np.random.default_rng(404)
    cutoff = 2 ** config.cutoff_exponent
    mismatches = 0
    for trial in range(1000):
        buy, sell, mb, ms = (a.astype(dtype) for a in _random_encoded_inputs(rng, config, 1))
        base = predict_batch(params, config, buy, sell, mb, ms).data.copy()
        mutated_buy, mutated_sell = buy.copy(), sell.copy()
        for matrix, mask in ((mutated_buy, mb), (mutated_sell, ms)):
            dead_rows = np.flatnonzero(mask[0, :, 0] == 0.0)
            if dead_rows.size:
                row = int(rng.choice(dead_rows))
                matrix[0, row] = rng.normal(scale=100.0, size=3)
        out = predict_batch(params, config, mutated_buy, mutated_sell, mb, ms).data
        if not np.array_equal(base, out):
            mismatches += 1
    _report(f"C3 masking invariance, {np.dtype(dtype).name}", mismatches == 0,
            f"(trials=1000, mismatches={mismatches})")


def test_criterion_4_oracle_equivalence():
    """AQL, AQCR, AIW, RMSE, MAE, R2 and the index labeler all match
    independent brute-force implementations within 1e-10."""
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 40))
        y = rng.normal(50, 20, size=n)
        forecasts = rng.normal(50, 20, size=(n, 7))

        brute_aql = np.mean([[pinball(y[i], forecasts[i, j], tau)
                              for j, tau in enumerate(QUANTILES)] for i in range(n)])
        worst = max(worst, abs(aql(y, forecasts, QUANTILES) - brute_aql))

        pairs = list(combinations(range(7), 2))
        brute_aqcr = 100.0 * sum(
            forecasts[i, lo] > forecasts[i, hi] for i in range(n) for lo, hi in pairs
        ) / (n * len(pairs))
        worst = max(worst, abs(aqcr(forecasts) - brute_aqcr))

        sym = [(lo, hi) for lo, hi in pairs if abs(QUANTILES[lo] + QUANTILES[hi] - 1) < 1e-9]
        brute_aiw = np.mean([forecasts[i, hi] - forecasts[i, lo] for i in range(n) for lo, hi in sym])
        worst = max(worst, abs(aiw(forecasts, QUANTILES) - brute_aiw))

        median = forecasts[:, 3]
        rmse, mae, r2 = pointwise(y, median)
        worst = max(worst, abs(rmse - math.sqrt(np.mean((y - median) ** 2))))
        worst = max(worst, abs(mae - np.mean(np.abs(y - median))))
        brute_r2 = 1 - np.sum((y - median) ** 2) / np.sum((y - np.mean(y)) ** 2)
        worst = max(worst, abs(r2 - brute_r2))

    delivery = datetime(2024, 6, 1, 18, tzinfo=UTC)
    cfg = MarketConfig(index_x=1, delta_c_minutes=30)
    label_worst = 0.0
    for _ in range(100):
        trades = [  # (side, price, volume, transaction_time)
            (
                1 if rng.random() < 0.5 else -1,
                float(rng.normal(80, 25)),
                float(rng.lognormal(0, 1)),
                delivery - timedelta(minutes=float(rng.uniform(1, 200))),
            )
            for _ in range(int(rng.integers(20, 200)))
        ]
        start = delivery - timedelta(minutes=60)
        end = delivery - timedelta(minutes=30)
        picked = [t for t in trades if start <= t[3] < end]
        if not picked:
            continue
        oracle = math.fsum(t[1] * t[2] for t in picked) / math.fsum(t[2] for t in picked)
        rows = sorted(trades, key=lambda t: t[3])
        table = Trades(np.full(len(rows), Trades.to_us(delivery), dtype=np.int64),
                       np.array([Trades.to_us(t[3]) for t in rows], dtype=np.int64),
                       np.array([t[0] for t in rows], dtype=np.int8),
                       np.array([t[1] for t in rows]), np.array([t[2] for t in rows]))
        label_worst = max(label_worst, abs(compute_index_label(table, delivery, cfg) - oracle))

    _report(
        "C4 oracle equivalence",
        worst <= 1e-10 and label_worst <= 1e-10,
        f"(metrics worst={worst:.2e}, labeling worst={label_worst:.2e})",
    )


@pytest.mark.slow
def test_criterion_5_synthetic_learnability(market, run_cache):
    """Default-schedule training beats the naive forecaster by >= 20% AQL
    with R2 >= 0.8 on >= 4 of 5 seeds, five runs inside 10 minutes."""
    y_naive, f_naive = _naive1_forecasts(market)
    naive_aql = aql(y_naive, f_naive, QUANTILES)
    y_test = market["y_test"]
    passes = 0
    details = []
    total_seconds = 0.0
    for seed in LEARNABILITY_SEEDS:
        run = _trained_forecasts(market, run_cache, seed, "dual")
        total_seconds += run["seconds"]
        report = evaluate_forecasts(y_test, run["forecasts"], QUANTILES)
        ok = report.aql <= 0.8 * naive_aql and report.r2 is not None and report.r2 >= 0.8
        passes += ok
        details.append(f"seed{seed}: AQL {report.aql:.3f} R2 {report.r2:.3f}")
    _report(
        "C5 synthetic learnability",
        passes >= 4 and total_seconds <= 600,
        f"(naive1 AQL {naive_aql:.3f}; {'; '.join(details)}; {passes}/5 pass; "
        f"train time {total_seconds:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_6_ablation_direction(market, run_cache):
    """Removing the mask costs >= 10% test AQL against the dual mask on
    >= 4 of 5 seeds."""
    y_test = market["y_test"]
    passes = 0
    details = []
    for seed in LEARNABILITY_SEEDS:
        dual = aql(y_test, _trained_forecasts(market, run_cache, seed, "dual")["forecasts"], QUANTILES)
        none = aql(y_test, _trained_forecasts(market, run_cache, seed, "none")["forecasts"], QUANTILES)
        ok = none >= 1.10 * dual
        passes += ok
        details.append(f"seed{seed}: x{none / dual:.2f}")
    _report("C6 ablation direction", passes >= 4, f"({'; '.join(details)}; {passes}/5 pass)")


def test_criterion_7_baseline_determinism(market):
    """Naive 1-3 probabilistic forecasts: zero variance across 5 runs and
    AQCR exactly 0."""
    train_labels = {s.delivery_start: s.label for s in market["train_raw"] + market["val_raw"]}
    all_labels = {s.delivery_start: s.label for s in market["all_raw"]}
    ok = True
    details = []
    for kind in ("prev_hour", "prev_day_same_hour", "mean3_same_hour"):
        runs = []
        for _ in range(5):
            residuals = ResidualQuantiles.fit(train_labels, kind, MARKET_CFG, QUANTILES)
            forecasts = []
            for s in market["test_raw"]:
                point = naive_point(all_labels, s.delivery_start, kind, MARKET_CFG)
                if point is None or s.delivery_start.hour not in residuals.per_hour:
                    continue
                forecasts.append(naive_probabilistic(residuals, point, s.delivery_start.hour))
            runs.append(np.array(forecasts))
        identical = all(np.array_equal(runs[0], r) for r in runs[1:])
        crossing = aqcr(runs[0])
        ok = ok and identical and crossing == 0.0
        details.append(f"{kind}: identical={identical}, AQCR={crossing:.2f}%")
    _report("C7 baseline determinism", ok, f"({'; '.join(details)})")


def test_criterion_8_fold_protocol():
    """The rolling folds reproduce the documented boundaries and the test
    windows tile exactly twelve months."""
    start = datetime(2022, 1, 1, tzinfo=UTC)
    folds = rolling_folds(start)
    f1 = folds[0]
    boundaries_ok = (
        f1.train_range == (start, datetime(2023, 9, 1, tzinfo=UTC))
        and f1.val_range == (datetime(2023, 9, 1, tzinfo=UTC), datetime(2024, 1, 1, tzinfo=UTC))
        and f1.test_range == (datetime(2024, 1, 1, tzinfo=UTC), datetime(2024, 5, 1, tzinfo=UTC))
    )
    terminus_ok = folds[-1].test_range[1] == datetime(2025, 1, 1, tzinfo=UTC)
    tiling_ok = all(a.test_range[1] == b.test_range[0] for a, b in zip(folds, folds[1:]))
    span_ok = add_months(folds[0].test_range[0], 12) == folds[-1].test_range[1]
    _report(
        "C8 fold protocol",
        boundaries_ok and terminus_ok and tiling_ok and span_ok,
        f"(boundaries={boundaries_ok}, terminus={terminus_ok}, tiling={tiling_ok and span_ok})",
    )


@pytest.mark.slow
def test_criterion_9_crossing_detectability(market):
    """Independent single-quantile models cross on heteroskedastic data;
    sorting removes every crossing without hurting AQL by more than 1%."""
    sub_train, sub_val = market["train"][:2200], market["val"][:500]
    y_test = market["y_test"]
    cols = []
    for k, tau in enumerate(QUANTILES):
        config = replace(MARKET_MODEL, head_variant="single", head_tau=tau, seed=100 + k)
        result = train(config, sub_train, sub_val, TrainConfig(epochs=25, seed=100 + k))
        batch = encode_samples(market["test"], config)
        pred = predict_batch(result.params, config, batch.buy, batch.sell,
                             batch.mask_buy, batch.mask_sell)
        cols.append(pred.data[:, 0])
    stacked = market["label_scaler"].inverse(np.column_stack(cols))
    raw_aqcr = aqcr(stacked)
    sorted_forecasts = np.sort(stacked, axis=1)
    sorted_aqcr = aqcr(sorted_forecasts)
    raw_aql = aql(y_test, stacked, QUANTILES)
    sorted_aql = aql(y_test, sorted_forecasts, QUANTILES)
    rel_change = (sorted_aql - raw_aql) / raw_aql
    _report(
        "C9 crossing detectability",
        raw_aqcr > 0.0 and sorted_aqcr == 0.0 and rel_change <= 0.01,
        f"(raw AQCR {raw_aqcr:.2f}%, sorted AQCR {sorted_aqcr:.2f}%, "
        f"AQL change {rel_change * 100:+.2f}%)",
    )
