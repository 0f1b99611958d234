"""The shipped comparison -- one digit-OT exchange over 4-bit digit
leaves plus a log-depth AND tree -- against the bit-leaf reference in
``tests/oracles.py`` and plaintext ``[Y > X]``: same result, and exactly
the COTs, triples, bytes, messages, OT exchanges and round trips its
cost functions promise."""

from math import ceil, log2
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bit_leaf_triples, millionaire_p0_reference, millionaire_p1_reference
from parties import ScriptedChannel, packed_bits

from repro.errors import ProtocolError
from repro.mpc import compare
from repro.mpc.compare import (
    cots_needed,
    millionaire_bytes,
    millionaire_messages,
    millionaire_p0,
    millionaire_p1,
    triples_needed,
)
from repro.mpc.triples import dealer_bit_triples
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool
from repro.ot.testing import fake_cots

WIDTHS = [1, 2, 3, 4, 5, 15, 16, 31, 63]
SIZES = [0, 1, 7, 96]


def inputs(bits, n, seed):
    """Random l-bit x, y with the edges written over the first slots
    (0 and 2^l - 1 against each other and themselves, off by one) and
    x = y on the last random slot."""
    gen = np.random.default_rng(seed)
    top = (1 << bits) - 1
    x = gen.integers(0, top, n, dtype=np.uint64, endpoint=True)
    y = gen.integers(0, top, n, dtype=np.uint64, endpoint=True)
    edges = [(0, 0), (top, top), (0, top), (top, 0), (top - 1, top)]
    for i, (ex, ey) in enumerate(edges[:n]):
        x[i], y[i] = ex, ey
    if n > len(edges):
        y[-1] = x[-1]
    return x, y


def compare_pair(p0, p1, x, y, bits, n_cots, n_triples, seed=1):
    """Run one comparison pair on dealt COTs and triples; returns the
    reconstruction, both parties' stats and leftover COT and triple
    counts."""
    sender, receiver = fake_cots(n_cots, seed=seed)
    pools = CotPool(sender=sender), CotPool(receiver=receiver)
    t0, t1 = dealer_bit_triples(n_triples, np.random.default_rng(seed))
    g0, g1, st0, st1 = run_pair(
        lambda ch: p0(ch, x, bits, pools[0], t0, np.random.default_rng(seed + 1)),
        lambda ch: p1(ch, y, bits, pools[1], t1),
    )
    left = (pools[0].remaining, pools[1].remaining, len(t0), len(t1))
    return g0 ^ g1, st0, st1, left


def shipped(x, y, bits, seed=1):
    n = x.shape[0]
    got, *_ = compare_pair(
        millionaire_p0, millionaire_p1, x, y, bits,
        cots_needed(n, bits), triples_needed(n, bits), seed,
    )
    return got


def reference(x, y, bits, seed=1):
    n = x.shape[0]
    want, *_ = compare_pair(
        millionaire_p0_reference, millionaire_p1_reference, x, y, bits,
        bits * n, bit_leaf_triples(n, bits), seed,
    )
    return want


class TestShippedComparison:
    @settings(max_examples=40, deadline=None)
    @given(bits=st.sampled_from(WIDTHS), n=st.sampled_from(SIZES), seed=st.integers(0, 2**16))
    def test_matches_oracle_and_its_cost_functions(self, bits, n, seed):
        x, y = inputs(bits, n, seed)
        spare = 5
        with mock.patch.object(
            compare, "ot_n_send_from_cot", wraps=compare.ot_n_send_from_cot
        ) as spy:
            got, st0, st1, left = compare_pair(
                millionaire_p0, millionaire_p1, x, y, bits,
                cots_needed(n, bits) + spare, triples_needed(n, bits) + spare, seed,
            )
        assert np.array_equal(got, (y > x).astype(np.uint8))
        assert left == (spare,) * 4
        assert triples_needed(n, bits) <= bit_leaf_triples(n, bits)
        assert st0.bytes_sent + st1.bytes_sent == millionaire_bytes(n, bits)
        assert st0.messages_sent + st1.messages_sent == millionaire_messages(bits)
        assert spy.call_count == 1  # every digit's OT in one exchange
        digits = ceil(bits / 4)
        depth = ceil(log2(digits)) if digits > 1 else 0
        assert max(st0.rounds, st1.rounds) <= 1 + depth

    def test_bit_leaf_reference_agrees(self):
        # Every width up to 16, multiples of the digit or not, with the
        # edges of ``inputs`` (0, 2^l - 1, equal inputs) and random pairs.
        for bits in range(1, 17):
            x, y = inputs(bits, 40, seed=bits)
            want = (y > x).astype(np.uint8)
            assert np.array_equal(reference(x, y, bits, seed=bits), want), bits
            assert np.array_equal(shipped(x, y, bits, seed=bits), want), bits

    def test_exhaustive_at_six_bits(self):
        grid = np.arange(64, dtype=np.uint64)
        x, y = (v.reshape(-1) for v in np.meshgrid(grid, grid))
        want = (y > x).astype(np.uint8)
        assert np.array_equal(reference(x, y, 6), want)
        assert np.array_equal(shipped(x, y, 6), want)

    @pytest.mark.parametrize(
        "bits, per_element", [(1, 0), (2, 0), (4, 0), (5, 1), (9, 3), (15, 4), (16, 4), (63, 26)]
    )
    def test_triples_closed_form(self, bits, per_element):
        # 2(q-1) - popcount(q-1) over q = ceil(l/4) digit leaves.
        assert triples_needed(96, bits) == 96 * per_element

    @pytest.mark.parametrize("bits, per_element", [(1, 4), (4, 4), (5, 8), (15, 16), (16, 16)])
    def test_cots_closed_form(self, bits, per_element):
        # Four COTs per digit; the top digit is zero-padded.
        assert cots_needed(96, bits) == 96 * per_element

    def test_relu_comparison_is_six_messages(self):
        # 10 with one leaf per bit, 7 * 15 = 105 bit-serially.
        assert millionaire_messages(15) == millionaire_messages(16) == 6


class TestMalformedComparisonMessages:
    """The digit-OT correction bits, the digit-OT reply and every tree
    opening are peer-controlled lengths: a ProtocolError, never a numpy
    error.  At 16 bits a comparison has four digit leaves, so a tree."""

    BITS, N = 16, 5
    COTS = cots_needed(N, BITS)
    # A 4-bit comparison is one digit with no tree, so one over as many
    # elements as there are digits here moves the same correction bits
    # and reply, and nothing else.
    REPLY = millionaire_bytes(COTS // 4, 4) - len(packed_bits(COTS))

    def p0(self, inbound):
        sender, _ = fake_cots(self.COTS)
        t0, _ = dealer_bit_triples(triples_needed(self.N, self.BITS), np.random.default_rng(0))
        return millionaire_p0(
            ScriptedChannel(inbound), np.zeros(self.N, np.uint64), self.BITS,
            CotPool(sender=sender), t0, np.random.default_rng(1),
        )

    def p1(self, inbound):
        _, receiver = fake_cots(self.COTS)
        _, t1 = dealer_bit_triples(triples_needed(self.N, self.BITS), np.random.default_rng(0))
        return millionaire_p1(
            ScriptedChannel(inbound), np.zeros(self.N, np.uint64), self.BITS,
            CotPool(receiver=receiver), t1,
        )

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_corrections(self, delta):
        with pytest.raises(ProtocolError, match="correction bit vector"):
            self.p0([packed_bits(self.COTS + delta)])

    @pytest.mark.parametrize("size", [REPLY - 1, REPLY + 1, 1])
    def test_ot_reply(self, size):
        with pytest.raises(ProtocolError, match="OT reply"):
            self.p1([bytes(size)])

    def test_whole_reply_is_accepted(self):
        # The derived size is the real one: the receiver gets past the
        # reply and stops at the first tree opening.
        with pytest.raises(ProtocolError, match="opening"):
            self.p1([bytes(self.REPLY), packed_bits(1)])

    @pytest.mark.parametrize("n_bits", [2 * 3 * N - 1, 2 * 3 * N + 1, 1])
    def test_first_tree_opening(self, n_bits):
        # The first level of a 4-leaf tree opens 3 ANDs per element.
        with pytest.raises(ProtocolError, match="opening"):
            self.p0([packed_bits(self.COTS), packed_bits(n_bits)])
