"""The shipped comparison -- one level-OT exchange plus a log-depth AND
tree -- against the bit-serial reference in ``tests/oracles.py``: same
``[Y > X]``, and exactly the triples, bytes, messages, OT exchanges and
round trips its cost functions promise."""

from math import ceil, log2
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import millionaire_p0_reference, millionaire_p1_reference
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
from repro.ot.ot_from_cot import ot_reply_bytes
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


def compare_pair(p0, p1, x, y, bits, n_triples, seed=1):
    """Run one comparison pair on dealt COTs and triples; returns the
    reconstruction, both parties' stats and leftover triple counts."""
    n = x.shape[0]
    sender, receiver = fake_cots(cots_needed(n, bits), seed=seed)
    t0, t1 = dealer_bit_triples(n_triples, np.random.default_rng(seed))
    g0, g1, st0, st1 = run_pair(
        lambda ch: p0(ch, x, bits, CotPool(sender=sender), t0, np.random.default_rng(seed + 1)),
        lambda ch: p1(ch, y, bits, CotPool(receiver=receiver), t1),
    )
    return g0 ^ g1, st0, st1, (len(t0), len(t1))


class TestShippedComparison:
    @settings(max_examples=40, deadline=None)
    @given(bits=st.sampled_from(WIDTHS), n=st.sampled_from(SIZES), seed=st.integers(0, 2**16))
    def test_matches_oracle_and_its_cost_functions(self, bits, n, seed):
        x, y = inputs(bits, n, seed)
        spare = 5
        with mock.patch.object(
            compare, "ot_send_from_cot", wraps=compare.ot_send_from_cot
        ) as spy:
            got, st0, st1, left = compare_pair(
                millionaire_p0, millionaire_p1, x, y, bits,
                triples_needed(n, bits) + spare, seed,
            )
        assert np.array_equal(got, (y > x).astype(np.uint8))
        assert left == (spare, spare)
        assert triples_needed(n, bits) <= 2 * (bits - 1) * n
        assert st0.bytes_sent + st1.bytes_sent == millionaire_bytes(n, bits)
        assert st0.messages_sent + st1.messages_sent == millionaire_messages(bits)
        assert spy.call_count == 1  # every level's OT in one exchange
        depth = ceil(log2(bits)) if bits > 1 else 0
        assert max(st0.rounds, st1.rounds) <= 1 + depth

    @settings(max_examples=10, deadline=None)
    @given(bits=st.sampled_from(WIDTHS[:7]), n=st.sampled_from(SIZES), seed=st.integers(0, 2**16))
    def test_bit_serial_reference_agrees(self, bits, n, seed):
        x, y = inputs(bits, n, seed)
        want, *_ = compare_pair(
            millionaire_p0_reference, millionaire_p1_reference, x, y, bits, 2 * bits * n, seed
        )
        got, *_ = compare_pair(
            millionaire_p0, millionaire_p1, x, y, bits, triples_needed(n, bits), seed
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("bits, per_element", [(1, 0), (2, 1), (4, 4), (15, 25), (16, 26)])
    def test_triples_closed_form(self, bits, per_element):
        # 2(l-1) - popcount(l-1): a tree level of m nodes costs m - 1 ANDs.
        assert triples_needed(96, bits) == 96 * per_element

    def test_relu_comparison_is_ten_messages(self):
        assert millionaire_messages(15) == 10  # was 7 * 15 = 105 bit-serially


class TestMalformedComparisonMessages:
    """The level-OT correction bits, the OT reply and every tree opening
    are peer-controlled lengths: a ProtocolError, never a numpy error."""

    BITS, N = 4, 5

    def p0(self, inbound):
        sender, _ = fake_cots(self.BITS * self.N)
        t0, _ = dealer_bit_triples(triples_needed(self.N, self.BITS), np.random.default_rng(0))
        return millionaire_p0(
            ScriptedChannel(inbound), np.zeros(self.N, np.uint64), self.BITS,
            CotPool(sender=sender), t0, np.random.default_rng(1),
        )

    def p1(self, inbound):
        _, receiver = fake_cots(self.BITS * self.N)
        _, t1 = dealer_bit_triples(triples_needed(self.N, self.BITS), np.random.default_rng(0))
        return millionaire_p1(
            ScriptedChannel(inbound), np.zeros(self.N, np.uint64), self.BITS,
            CotPool(receiver=receiver), t1,
        )

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_corrections(self, delta):
        with pytest.raises(ProtocolError, match="correction bit vector"):
            self.p0([packed_bits(self.BITS * self.N + delta)])

    @pytest.mark.parametrize("size", [ot_reply_bytes(20, 1) - 1, ot_reply_bytes(20, 1) + 1, 1])
    def test_ot_reply(self, size):
        with pytest.raises(ProtocolError, match="OT reply"):
            self.p1([bytes(size)])

    @pytest.mark.parametrize("n_bits", [2 * 3 * N - 1, 2 * 3 * N + 1, 1])
    def test_first_tree_opening(self, n_bits):
        # The first level of a 4-leaf tree opens 3 ANDs per element.
        with pytest.raises(ProtocolError, match="opening"):
            self.p0([packed_bits(self.BITS * self.N), packed_bits(n_bits)])
