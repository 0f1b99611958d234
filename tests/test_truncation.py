"""Secure fixed-point truncation: property sweeps across ring widths
and exact byte-model validation."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.mpc.triples import dealer_bit_triples, ring_mask_u64
from repro.mpc.truncation import (
    FixedPointConfig,
    millionaire_bytes,
    trunc_bytes,
    trunc_draws,
    trunc_messages,
    truncate_shares,
)
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool

from repro.ot.testing import fake_cots

SWEEP = [(16, 4), (16, 12), (32, 8), (32, 12), (64, 4), (64, 8)]


def full_ring_values(bits, rng, n_random=48):
    """Random ring values plus every edge the protocol must survive:
    0, +-1, and values hugging +-2^(bits-1)."""
    mask = int(ring_mask_u64(bits))
    hi = 1 << (bits - 1)
    edges = np.array(
        [0, 1, mask, hi - 1, hi, hi + 1, hi - 2, (1 << max(bits - 2, 1))],
        dtype=np.uint64,
    ) & np.uint64(mask)
    rand = rng.integers(0, 1 << bits, n_random, dtype=np.uint64)
    return np.concatenate([edges, rand])


def share_values(values, bits, rng):
    mask = ring_mask_u64(bits)
    x0 = rng.integers(0, 1 << bits, values.shape[0], dtype=np.uint64)
    return x0, (values - x0) & mask


def run_truncate(values, cfg, seed=0):
    """Full two-party exact truncation on exactly the correlations
    ``trunc_draws`` lists; returns the reconstruction and both parties'
    wire stats.  Asserts every drawn COT and bit triple is consumed, so
    each call pins the protocol's exact correlation use."""
    rng = np.random.default_rng(seed)
    n = values.shape[0]
    x0, x1 = share_values(values, cfg.bits, rng)
    (_, _, n_cots), (_, _, n_tri) = trunc_draws(n, cfg)
    sender, receiver = fake_cots(n_cots, seed=seed + 1)
    t0, t1 = dealer_bit_triples(n_tri, rng)
    pool0, pool1 = CotPool(sender=sender), CotPool(receiver=receiver)
    z0, z1, st0, st1 = run_pair(
        lambda ch: truncate_shares(
            ch, x0, cfg, 0, pool0, t0, np.random.default_rng(seed + 2)
        ),
        lambda ch: truncate_shares(ch, x1, cfg, 1, pool1, t1),
        timeout=600.0,
    )
    assert pool0.remaining == pool1.remaining == 0
    assert len(t0) == len(t1) == 0
    return (z0 + z1) & cfg.mask, st0, st1


class TestFixedPointConfig:
    def test_encode_decode_roundtrip(self):
        cfg = FixedPointConfig(16, 6)
        vals = np.array([0.0, 1.5, -2.25, 3.140625, -0.015625])
        assert np.allclose(cfg.decode(cfg.encode(vals)), vals)

    def test_trunc_reference_is_floor_division(self):
        cfg = FixedPointConfig(16, 4)
        ring = cfg.encode(np.array([1.0, -1.0]))  # 16 and -16 at scale 2^4
        prod = (ring.astype(np.int64) * 5).astype(np.uint64) & cfg.mask
        ref = cfg.to_signed(cfg.trunc_reference(prod))
        assert list(ref) == [5, -5]
        odd = np.array([-5 & 0xFFFF], dtype=np.uint64)  # floor(-5/16) = -1
        assert cfg.to_signed(cfg.trunc_reference(odd))[0] == -1

    @pytest.mark.parametrize(
        "bits,frac,mag", [(8, 0, None), (8, 8, None), (65, 4, None), (16, 4, 15), (16, 8, 4)]
    )
    def test_invalid_configs_rejected(self, bits, frac, mag):
        with pytest.raises(ParameterError):
            FixedPointConfig(bits, frac, mag)


class TestExactSweep:
    """The acceptance sweep: random shares, full-ring signed values
    including the +-2^(bits-1) edges, every (bits, frac) combination."""

    @pytest.mark.parametrize("bits,frac", SWEEP, ids=lambda p: str(p))
    def test_exact_mode_is_bit_exact(self, bits, frac):
        cfg = FixedPointConfig(bits, frac)
        rng = np.random.default_rng(bits * 100 + frac)
        values = full_ring_values(bits, rng)
        got, _, _ = run_truncate(values, cfg, seed=bits + frac)
        assert np.array_equal(got, cfg.trunc_reference(values))

    def test_multiple_share_splits_same_value(self):
        """Exactness must hold whichever way the ring value splits."""
        cfg = FixedPointConfig(32, 8)
        value = np.uint64((1 << 31) + 12345)  # most negative region
        for seed in range(5):
            values = np.full(4, value, dtype=np.uint64)
            got, _, _ = run_truncate(values, cfg, seed=seed)
            assert np.array_equal(got, cfg.trunc_reference(values)), seed


class TestByteModels:
    """Measured wire bytes equal the analytical predictors exactly."""

    def test_online_bytes_match_model(self):
        """Truncation moves what the model predicts, on the wire byte
        for byte and message for message."""
        cfg = FixedPointConfig(16, 4)
        rng = np.random.default_rng(3)
        values = full_ring_values(16, rng, n_random=9)
        n = values.shape[0]
        _, st0, st1 = run_truncate(values, cfg, seed=5)
        measured = st0.bytes_sent + st1.bytes_sent
        assert measured == trunc_bytes(n, cfg)
        messages = st0.messages_sent + st1.messages_sent
        assert messages == trunc_messages(cfg)

    def test_millionaire_bytes_helper_composition(self):
        """The online model decomposes into two comparisons + one Gilboa
        B2A of 2n bits -- the shape the documentation claims: 2n
        correction bits behind their count, then 2n 4-byte lanes."""
        cfg = FixedPointConfig(32, 8)
        n = 10
        assert trunc_bytes(n, cfg) == (
            millionaire_bytes(n, 32) + millionaire_bytes(n, 8) + (8 + 3) + 2 * n * 4
        )
