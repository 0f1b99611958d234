"""Secure fixed-point truncation: property sweeps across ring widths,
pair generation, and exact byte-model validation."""

import numpy as np
import pytest

from repro.errors import ParameterError, ProtocolError
from repro.mpc.triples import (
    BitTriples,
    dealer_ring_triples,
    ring_mask_u64,
)
from repro.mpc.truncation import (
    FixedPointConfig,
    TruncPairs,
    dealer_trunc_pairs,
    generate_trunc_pairs,
    millionaire_bytes,
    trunc_draws,
    trunc_online_bytes,
    trunc_pair_bit_triples,
    trunc_pair_cots,
    trunc_preproc_bytes,
    truncate_pair_online,
    truncate_shares,
)
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool

from repro.ot.testing import fake_cots

SWEEP = [(16, 4), (16, 12), (32, 8), (32, 12), (64, 4), (64, 8)]


def dealer_bit_triples(n, rng):
    """Plaintext bit triples, XOR-shared between the two parties."""
    a = rng.integers(0, 2, n).astype(np.uint8)
    b = rng.integers(0, 2, n).astype(np.uint8)
    c = a & b
    sa, sb, sc = (rng.integers(0, 2, n).astype(np.uint8) for _ in range(3))
    return BitTriples(sa, sb, sc), BitTriples(a ^ sa, b ^ sb, c ^ sc)


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


def run_truncate(values, cfg, exact, seed=0):
    """Full two-party wrap-fixed/exact truncation; returns the
    reconstruction and both parties' wire stats."""
    rng = np.random.default_rng(seed)
    n = values.shape[0]
    x0, x1 = share_values(values, cfg.bits, rng)
    (_, _, n_cots), (_, _, n_tri), (_, _, n_rtri) = trunc_draws(
        n, cfg, "exact" if exact else "wrap"
    )
    sender, receiver = fake_cots(n_cots, seed=seed + 1)
    t0, t1 = dealer_bit_triples(n_tri, rng)
    rt0, rt1 = dealer_ring_triples(n_rtri, cfg.bits, rng)
    z0, z1, st0, st1 = run_pair(
        lambda ch: truncate_shares(
            ch, x0, cfg, 0, CotPool(sender=sender), t0, rt0,
            np.random.default_rng(seed + 2), exact=exact,
        ),
        lambda ch: truncate_shares(
            ch, x1, cfg, 1, CotPool(receiver=receiver), t1, rt1, exact=exact
        ),
        timeout=600.0,
    )
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
        got, _, _ = run_truncate(values, cfg, exact=True, seed=bits + frac)
        assert np.array_equal(got, cfg.trunc_reference(values))

    @pytest.mark.parametrize("bits,frac", SWEEP, ids=lambda p: str(p))
    def test_wrap_mode_within_one_ulp(self, bits, frac):
        """Without the low-carry fix the result is floor(x/2^f) or one
        less -- inside the +-1 ULP contract for EVERY ring value."""
        cfg = FixedPointConfig(bits, frac)
        rng = np.random.default_rng(bits * 200 + frac)
        values = full_ring_values(bits, rng)
        got, _, _ = run_truncate(values, cfg, exact=False, seed=bits + frac + 7)
        diff = cfg.to_signed((got - cfg.trunc_reference(values)) & cfg.mask)
        assert np.all((diff >= -1) & (diff <= 1)), diff
        assert np.all(diff <= 0)  # the one-sided direction is known

    def test_multiple_share_splits_same_value(self):
        """Exactness must hold whichever way the ring value splits."""
        cfg = FixedPointConfig(32, 8)
        value = np.uint64((1 << 31) + 12345)  # most negative region
        for seed in range(5):
            values = np.full(4, value, dtype=np.uint64)
            got, _, _ = run_truncate(values, cfg, exact=True, seed=seed)
            assert np.array_equal(got, cfg.trunc_reference(values)), seed


class TestPairMode:
    """Probabilistic pair truncation: within {0, +1} of floor(x/2^f)
    given mag_bits headroom (failure probability 2^(mag+1-bits))."""

    @pytest.mark.parametrize(
        "bits,frac,mag", [(32, 8, 12), (32, 4, 10), (64, 12, 24)],
        ids=lambda p: str(p),
    )
    def test_pair_truncation_within_contract(self, bits, frac, mag):
        cfg = FixedPointConfig(bits, frac, mag)
        rng = np.random.default_rng(bits + frac + mag)
        signed = rng.integers(-(1 << mag) + 1, 1 << mag, 64)
        values = signed.astype(np.int64).astype(np.uint64) & cfg.mask
        x0, x1 = share_values(values, bits, rng)
        p0, p1 = dealer_trunc_pairs(values.shape[0], bits, frac, rng)
        z0, z1, _, _ = run_pair(
            lambda ch: truncate_pair_online(ch, x0, p0, cfg, 0),
            lambda ch: truncate_pair_online(ch, x1, p1, cfg, 1),
        )
        diff = cfg.to_signed(
            ((z0 + z1) - cfg.trunc_reference(values)) & cfg.mask
        )
        assert np.all((diff >= 0) & (diff <= 1)), diff

    def test_pair_mode_requires_headroom_config(self):
        cfg = FixedPointConfig(32, 8)  # no mag_bits
        p0, _ = dealer_trunc_pairs(4, 32, 8, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="mag_bits"):
            truncate_pair_online(None, np.zeros(4, dtype=np.uint64), p0, cfg, 0)

    def test_mismatched_pairs_rejected(self):
        cfg = FixedPointConfig(32, 8, 12)
        p0, _ = dealer_trunc_pairs(4, 32, 4, np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            truncate_pair_online(None, np.zeros(4, dtype=np.uint64), p0, cfg, 0)
        with pytest.raises(ProtocolError):
            truncate_pair_online(
                None, np.zeros(7, dtype=np.uint64),
                TruncPairs(p0.r, p0.s, 32, 8), cfg, 0,
            )


class TestPairGeneration:
    """Two-party (r, r >> f) generation: the shifted shares sum exactly."""

    @pytest.mark.parametrize("bits,frac", [(16, 4), (32, 8), (64, 12)],
                             ids=lambda p: str(p))
    def test_generated_pairs_reconstruct_exactly(self, bits, frac):
        n = 12
        rng = np.random.default_rng(bits + frac)
        sender, receiver = fake_cots(n * trunc_pair_cots(bits, frac), seed=frac)
        t0, t1 = dealer_bit_triples(n * trunc_pair_bit_triples(bits, frac), rng)
        p0, p1, st0, st1 = run_pair(
            lambda ch: generate_trunc_pairs(
                ch, n, bits, frac, CotPool(sender=sender), t0,
                np.random.default_rng(1), party=0,
            ),
            lambda ch: generate_trunc_pairs(
                ch, n, bits, frac, CotPool(receiver=receiver), t1,
                np.random.default_rng(2), party=1,
            ),
            timeout=600.0,
        )
        mask = ring_mask_u64(bits)
        r = (p0.r + p1.r) & mask
        s = (p0.s + p1.s) & mask
        assert np.array_equal(s, r >> np.uint64(frac))
        cfg = FixedPointConfig(bits, frac)
        assert st0.bytes_sent + st1.bytes_sent == trunc_preproc_bytes(n, cfg)

    def test_generation_consumes_exact_correlation_counts(self):
        bits, frac, n = 16, 4, 5
        rng = np.random.default_rng(9)
        sender, receiver = fake_cots(n * trunc_pair_cots(bits, frac) + 64)
        t0, t1 = dealer_bit_triples(n * trunc_pair_bit_triples(bits, frac) + 64, rng)
        pool0, pool1 = CotPool(sender=sender), CotPool(receiver=receiver)
        run_pair(
            lambda ch: generate_trunc_pairs(
                ch, n, bits, frac, pool0, t0, np.random.default_rng(1), 0
            ),
            lambda ch: generate_trunc_pairs(
                ch, n, bits, frac, pool1, t1, np.random.default_rng(2), 1
            ),
        )
        assert pool0.size - pool0.remaining == n * trunc_pair_cots(bits, frac)
        assert len(t0) == 64  # leftover = what we over-provisioned


class TestByteModels:
    """Measured wire bytes equal the analytical predictors exactly."""

    @pytest.mark.parametrize("mode", ["exact", "wrap"])
    def test_online_bytes_match_model(self, mode):
        cfg = FixedPointConfig(16, 4)
        rng = np.random.default_rng(3)
        values = full_ring_values(16, rng, n_random=9)
        _, st0, st1 = run_truncate(values, cfg, exact=mode == "exact", seed=5)
        measured = st0.bytes_sent + st1.bytes_sent
        assert measured == trunc_online_bytes(values.shape[0], cfg, mode)

    def test_pair_online_bytes_match_model(self):
        cfg = FixedPointConfig(32, 8, 12)
        rng = np.random.default_rng(4)
        values = rng.integers(0, 1 << 12, 21).astype(np.uint64)
        x0, x1 = share_values(values, 32, rng)
        p0, p1 = dealer_trunc_pairs(21, 32, 8, rng)
        _, _, st0, st1 = run_pair(
            lambda ch: truncate_pair_online(ch, x0, p0, cfg, 0),
            lambda ch: truncate_pair_online(ch, x1, p1, cfg, 1),
        )
        assert st0.bytes_sent + st1.bytes_sent == trunc_online_bytes(21, cfg, "pair")

    def test_millionaire_bytes_helper_composition(self):
        """The online model decomposes into comparisons + one Beaver
        opening -- the shape the documentation claims."""
        cfg = FixedPointConfig(32, 8)
        n = 10
        assert trunc_online_bytes(n, cfg, "exact") == (
            millionaire_bytes(n, 32) + millionaire_bytes(n, 8) + 2 * (2 * 2 * n) * 8
        )
        assert trunc_online_bytes(n, cfg, "pair") == 16 * n

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            trunc_online_bytes(4, FixedPointConfig(16, 4), "nope")
