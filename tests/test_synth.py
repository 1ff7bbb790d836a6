import hashlib
from datetime import datetime, timezone

import numpy as np
import pytest

from orderfusion.market import (
    MarketConfig,
    Trades,
    compute_index_label,
    delivery_slices,
    parse_trades,
)
from orderfusion.synth import SynthConfig, gen_market, simulate_delivery, write_market

UTC = timezone.utc


def quiet_config(**kw):
    """All randomness sources off unless overridden."""
    defaults = dict(
        seed=1,
        n_days=1,
        vol_per_hour=0.0,
        anchor_vol=0.0,
        anchor_reversion=0.0,
        seasonal_amplitude=0.0,
        offset_sigma=0.0,
        jump_intensity_per_hour=0.0,
        half_spread=0.0,
        coupling=0.0,
        arrival_rate_per_min=0.5,
        session_minutes=180,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestDegenerate:
    def test_zero_noise_pins_everything_to_base(self):
        # power-of-two base: price*volume products stay exact, so the
        # volume-weighted labels equal the base bit-for-bit
        cfg = quiet_config(base_price=64.0)
        trades, labels, skipped = gen_market(cfg, delta_c_minutes=0)
        assert len(trades), "expected some trades"
        assert (trades.price == 64.0).all()
        assert all(row.label == 64.0 for row in labels)

    def test_zero_noise_arbitrary_base(self):
        cfg = quiet_config(base_price=75.3)
        trades, labels, _ = gen_market(cfg, delta_c_minutes=0)
        assert (trades.price == 75.3).all()
        assert all(abs(row.label - 75.3) < 1e-10 for row in labels)

    def test_same_seed_byte_identical_files(self, tmp_path):
        cfg = SynthConfig(seed=42, n_days=2, arrival_rate_per_min=0.2, session_minutes=180)
        t1, l1, _ = write_market(cfg, tmp_path / "a")
        t2, l2, _ = write_market(cfg, tmp_path / "b")
        assert t1.read_bytes() == t2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()

    def test_golden_files(self, tmp_path):
        # digests of the files this generator wrote when these tests were
        # written: a seed must keep writing the same market
        trades_path, labels_path, _ = write_market(SynthConfig(seed=0, n_days=2), tmp_path)
        digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest(trades_path) == "6200eea4944f8b61b746721d7115a3d7dd54f900de7ef5cdbb8ffd59c631da42"
        assert digest(labels_path) == "22cafd93ae07815f2b4d163b907745dc6a9435b657d856e0154e7875706062d8"

    def test_different_seeds_differ(self, tmp_path):
        base = dict(n_days=1, arrival_rate_per_min=0.2, session_minutes=180)
        t1, _, _ = write_market(SynthConfig(seed=1, **base), tmp_path / "a")
        t2, _, _ = write_market(SynthConfig(seed=2, **base), tmp_path / "b")
        assert t1.read_bytes() != t2.read_bytes()


class TestContracts:
    def test_emitted_files_parse_losslessly(self, tmp_path):
        cfg = SynthConfig(seed=3, n_days=1, arrival_rate_per_min=0.3, session_minutes=180)
        trades_path, labels_path, _ = write_market(cfg, tmp_path)
        trades, _, _ = gen_market(cfg)
        parsed = parse_trades(trades_path)
        for name in ("delivery", "time", "side", "price", "volume"):
            np.testing.assert_array_equal(getattr(parsed, name), getattr(trades, name))

    def test_labels_equal_recomputation_from_trade_file(self, tmp_path):
        cfg = SynthConfig(seed=7, n_days=2, arrival_rate_per_min=0.3, session_minutes=200)
        trades_path, labels_path, _ = write_market(cfg, tmp_path, delta_c_minutes=30)
        deliveries, parts = delivery_slices(parse_trades(trades_path))
        with open(labels_path) as fh:
            header = fh.readline().strip()
            assert header == "delivery_start,index_x,label"
            for line in fh:
                ts, x, label = line.strip().split(",")
                delivery = datetime.fromisoformat(ts.replace("Z", "+00:00"))
                market_cfg = MarketConfig(index_x=int(x), delta_c_minutes=30)
                part = parts[np.searchsorted(deliveries, Trades.to_us(delivery))]
                recomputed = compute_index_label(part, delivery, market_cfg)
                assert recomputed == float(label)  # exact, same labeler

    def test_transaction_times_inside_session(self):
        cfg = SynthConfig(seed=5, n_days=1, session_minutes=120, arrival_rate_per_min=0.4)
        trades, _, _ = gen_market(cfg)
        assert (trades.time < trades.delivery).all()
        assert (trades.time >= trades.delivery - 120 * 60 * 10**6).all()

    def test_volumes_positive(self):
        trades, _, _ = gen_market(SynthConfig(seed=11, n_days=1, session_minutes=120))
        assert (trades.volume > 0).all()


class TestCoupling:
    def _innovation_pairs(self, coupling, seed=13, n_target=10_000):
        """(own innovation, last opposite innovation) pairs. Innovations are
        price-minus-mid residuals demeaned per side, so the buy/sell spread
        sign convention does not fake a correlation."""
        cfg = SynthConfig(seed=seed, coupling=coupling, arrival_rate_per_min=2.0,
                          session_minutes=240, half_spread=1.5)
        rng = np.random.default_rng(seed)
        raw = []  # (own side, own residual, last opposite residual)
        delivery = datetime(2024, 3, 1, 12, tzinfo=UTC)
        while len(raw) < n_target:
            _, diag = simulate_delivery(cfg, delivery, 80.0, rng, collect_mid=True)
            last = {1: None, -1: None}
            for side, price, mid in diag:
                other = last[-side]
                if other is not None:
                    raw.append((side, price - mid, other))
                last[side] = price - mid
        raw = raw[:n_target]
        mean = {
            s: np.mean([r for side, r, _ in raw if side == s] or [0.0])
            for s in (1, -1)
        }
        pairs = [
            (r - mean[side], o - mean[-side])
            for side, r, o in raw
        ]
        return np.array(pairs)

    def test_zero_coupling_roughly_uncorrelated(self):
        pairs = self._innovation_pairs(0.0)
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(corr) <= 0.1

    def test_strong_coupling_correlates(self):
        pairs = self._innovation_pairs(0.8)
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert corr > 0.3


class TestStructure:
    def test_hourly_products_cover_all_hours(self):
        trades, labels, _ = gen_market(SynthConfig(seed=17, n_days=1, session_minutes=120))
        hours = {Trades.from_us(d).hour for d in np.unique(trades.delivery)}
        assert hours == set(range(24))
        assert {row.index_x for row in labels} <= {1, 2, 3}

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(arrival_rate_per_min=0.0)
        with pytest.raises(ValueError):
            SynthConfig(coupling=1.5)
        with pytest.raises(ValueError):
            SynthConfig(vol_hour_amplitude=1.0)
