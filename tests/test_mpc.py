"""Online protocol tests: sharing, triples, comparison, DReLU/ReLU."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import blocks
from repro.errors import ParameterError
from repro.mpc.compare import (
    cots_needed,
    millionaire_p0,
    millionaire_p1,
    triples_needed,
    validate_inputs,
)
from repro.mpc.relu import relu_pair
from repro.mpc.sharing import (
    from_signed,
    reconstruct_arith,
    reconstruct_bool,
    share_arith,
    share_bool,
    to_signed,
)
from repro.mpc.triples import BitTriples, and_shared, generate_bit_triples
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch


def make_pools(n, seed, direction):
    """Build one COT pool pair (sender side, receiver side)."""
    gen = np.random.default_rng(seed)
    delta = blocks.random_blocks(1, gen)
    choices = gen.integers(0, 2, n).astype(np.uint8)
    r, y, _, _ = run_pair(
        lambda ch: base_cot_send(ch, n, delta, gen),
        lambda ch: base_cot_receive(ch, choices, np.random.default_rng(seed + 1)),
    )
    del direction
    return CotPool(sender=CotSenderBatch(delta, r)), CotPool(
        receiver=CotReceiverBatch(choices, y)
    )


@pytest.fixture(scope="module")
def fwd_pools():
    return make_pools(900, 101, "fwd")  # P0 sender


@pytest.fixture(scope="module")
def rev_pools():
    return make_pools(300, 202, "rev")  # P1 sender


@pytest.fixture
def triple_pair(fwd_pools, rev_pools):
    """Correlated BitTriples for both parties (fresh per test)."""
    p0_send, p1_recv = make_pools(256, 7, "f")
    p1_send, p0_recv = make_pools(256, 8, "r")
    rng0, rng1 = np.random.default_rng(1), np.random.default_rng(2)
    t0, t1, _, _ = run_pair(
        lambda ch: generate_bit_triples(ch, 256, p0_send, p0_recv, rng0, party=0),
        lambda ch: generate_bit_triples(ch, 256, p1_send, p1_recv, rng1, party=1),
    )
    return t0, t1


class TestSharing:
    def test_arith_roundtrip(self, rng):
        vals = rng.integers(0, 1 << 32, 50, dtype=np.uint64)
        s0, s1 = share_arith(vals, rng)
        assert np.array_equal(reconstruct_arith(s0, s1), vals)

    def test_arith_shares_hide_value(self, rng):
        vals = np.zeros(64, dtype=np.uint64)
        s0, _ = share_arith(vals, rng)
        assert len(np.unique(s0.values)) > 32  # share alone looks random

    def test_bool_roundtrip(self, rng):
        bits_vec = rng.integers(0, 2, 50).astype(np.uint8)
        b0, b1 = share_bool(bits_vec, rng)
        assert np.array_equal(reconstruct_bool(b0, b1), bits_vec)

    def test_signed_embedding_roundtrip(self):
        vals = np.array([-5, -1, 0, 1, 7])
        assert np.array_equal(to_signed(from_signed(vals, 16), 16), vals)

    def test_mismatched_shares_rejected(self, rng):
        a, _ = share_arith(np.arange(4, dtype=np.uint64), rng)
        b, _ = share_arith(np.arange(5, dtype=np.uint64), rng)
        with pytest.raises(ParameterError):
            reconstruct_arith(a, b)


class TestTriples:
    def test_triples_satisfy_and_relation(self, triple_pair):
        t0, t1 = triple_pair
        a = t0.a ^ t1.a
        b = t0.b ^ t1.b
        c = t0.c ^ t1.c
        assert np.array_equal(c, a & b)

    def test_triples_look_uniform(self, triple_pair):
        t0, t1 = triple_pair
        assert 0.3 < (t0.a ^ t1.a).mean() < 0.7

    def test_take_consumes(self, triple_pair):
        t0, _ = triple_pair
        total = len(t0)
        head = t0.take(10)
        assert len(head) == 10 and len(t0) == total - 10
        with pytest.raises(ParameterError):
            t0.take(total)

    def test_and_shared_correct(self, triple_pair, rng):
        t0, t1 = triple_pair
        x = rng.integers(0, 2, 40).astype(np.uint8)
        y = rng.integers(0, 2, 40).astype(np.uint8)
        x0, x1 = share_bool(x, rng)
        y0, y1 = share_bool(y, rng)
        z0, z1, _, _ = run_pair(
            lambda ch: and_shared(ch, t0, x0.bits_vec, y0.bits_vec, party=0),
            lambda ch: and_shared(ch, t1, x1.bits_vec, y1.bits_vec, party=1),
        )
        assert np.array_equal(z0 ^ z1, x & y)


class TestMillionaire:
    def run_compare(self, x_vals, y_vals, bits, seed=9):
        n = x_vals.shape[0]
        p0_pool, p1_pool = make_pools(cots_needed(n, bits), seed, "cmp")
        tp0_s, tp1_r = make_pools(triples_needed(n, bits), seed + 1, "f")
        tp1_s, tp0_r = make_pools(triples_needed(n, bits), seed + 2, "r")
        rng0, rng1 = np.random.default_rng(3), np.random.default_rng(4)
        nt = triples_needed(n, bits)
        t0, t1, _, _ = run_pair(
            lambda ch: generate_bit_triples(ch, nt, tp0_s, tp0_r, rng0, party=0),
            lambda ch: generate_bit_triples(ch, nt, tp1_s, tp1_r, rng1, party=1),
        )
        g0, g1, _, _ = run_pair(
            lambda ch: millionaire_p0(ch, x_vals, bits, p0_pool, t0, rng0),
            lambda ch: millionaire_p1(ch, y_vals, bits, p1_pool, t1),
        )
        return g0 ^ g1

    def test_exhaustive_small_domain(self):
        pairs = [(x, y) for x in range(8) for y in range(8)]
        x = np.array([p[0] for p in pairs], dtype=np.uint64)
        y = np.array([p[1] for p in pairs], dtype=np.uint64)
        got = self.run_compare(x, y, bits=3)
        assert np.array_equal(got, (y > x).astype(np.uint8))

    def test_random_16bit(self, rng):
        x = rng.integers(0, 1 << 16, 24, dtype=np.uint64)
        y = rng.integers(0, 1 << 16, 24, dtype=np.uint64)
        got = self.run_compare(x, y, bits=16, seed=33)
        assert np.array_equal(got, (y > x).astype(np.uint8))

    def test_equal_inputs_are_not_greater(self):
        x = np.arange(10, dtype=np.uint64)
        got = self.run_compare(x, x.copy(), bits=4, seed=55)
        assert not got.any()

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            validate_inputs(np.array([16], dtype=np.uint64), bits=4)
        with pytest.raises(ParameterError):
            validate_inputs(np.array([1], dtype=np.uint64), bits=0)


class TestRelu:
    def run_relu(self, values_signed, bits=16, seed=77):
        n = values_signed.shape[0]
        rng = np.random.default_rng(seed)
        ring_vals = from_signed(values_signed, bits).astype(np.uint64)
        s0, s1 = share_arith(ring_vals, rng, bits=bits)
        cmp0, cmp1 = make_pools(cots_needed(n, bits - 1), seed + 1, "c")
        mux0_s, mux1_r = make_pools(n, seed + 2, "m0")
        mux1_s, mux0_r = make_pools(n, seed + 3, "m1")
        nt = triples_needed(n, bits - 1)
        tp0_s, tp1_r = make_pools(nt, seed + 4, "tf")
        tp1_s, tp0_r = make_pools(nt, seed + 5, "tr")
        rng0, rng1 = np.random.default_rng(5), np.random.default_rng(6)
        t0, t1, _, _ = run_pair(
            lambda ch: generate_bit_triples(ch, nt, tp0_s, tp0_r, rng0, party=0),
            lambda ch: generate_bit_triples(ch, nt, tp1_s, tp1_r, rng1, party=1),
        )
        (y0, d0), (y1, d1), _, _ = run_pair(
            lambda ch: relu_pair(ch, s0, cmp0, mux0_s, mux0_r, t0, rng0, party=0),
            lambda ch: relu_pair(ch, s1, cmp1, mux1_s, mux1_r, t1, rng1, party=1),
        )
        drelu = reconstruct_bool(d0, d1)
        relu = to_signed(reconstruct_arith(y0, y1), bits)
        return relu, drelu

    def test_relu_mixed_signs(self):
        vals = np.array([-300, -1, 0, 1, 2, 100, -2000, 500])
        relu, drelu = self.run_relu(vals)
        assert np.array_equal(relu, np.maximum(vals, 0))
        assert np.array_equal(drelu, (vals >= 0).astype(np.uint8))

    def test_relu_random(self, rng):
        vals = rng.integers(-(1 << 14), 1 << 14, 16)
        relu, drelu = self.run_relu(vals, seed=91)
        assert np.array_equal(relu, np.maximum(vals, 0))
        assert np.array_equal(drelu, (vals >= 0).astype(np.uint8))

    @given(seed=st.integers(0, 200))
    @settings(max_examples=5, deadline=None)
    def test_property_relu(self, seed):
        gen = np.random.default_rng(seed)
        vals = gen.integers(-100, 100, 6)
        relu, _ = self.run_relu(vals, bits=12, seed=seed + 1000)
        assert np.array_equal(relu, np.maximum(vals, 0))
