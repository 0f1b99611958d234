"""Gilboa multiplication over COTs (the arithmetic primitive under matrix
triples and B2A) and the matrix-triple dealer."""

import numpy as np
import pytest

from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.errors import ParameterError
from repro.mpc.triples import (
    dealer_matrix_triples,
    gilboa_receive,
    gilboa_send,
    ring_mask_u64,
)
from repro.ot.channel import run_pair

from repro.ot.testing import fake_cots


class CountingCrhf(Crhf):
    """The default-key CRHF that counts the AES blocks it is asked for."""

    def __init__(self):
        super().__init__()
        self.calls = []  # both parties' threads append; += would race

    @property
    def blocks(self):
        return sum(self.calls)

    def hash_tweaked(self, x, tweaks):
        self.calls.append(x.shape[0])
        return super().hash_tweaked(x, tweaks)


def gilboa_pair(sender, receiver, corr, choices, bits, tweaks, chunk_rows, crhf=DEFAULT_CRHF):
    """Both halves of one Gilboa run, each party's share chunks stitched
    back into its ``(n, width)`` matrix, plus both channel stats."""
    n, width = corr.shape

    def stitch(chunks):
        out = np.empty((n, width), dtype=np.uint64)
        for start, share in chunks:
            out[start : start + share.shape[0]] = share
        return out

    return run_pair(
        lambda ch: stitch(gilboa_send(
            ch, sender, lambda a, b: corr[a:b], width, bits, tweaks, chunk_rows, crhf
        )),
        lambda ch: stitch(gilboa_receive(
            ch, receiver, choices, width, bits, tweaks, chunk_rows, crhf
        )),
    )


def lanes_per_hash(bits):
    """Ring pads one 128-bit hash output yields: its narrowest lanes >= bits."""
    return 128 // next(w for w in (8, 16, 32, 64) if w >= bits)


class TestPadPacking:
    """One hash output pads ``lanes_per_hash(bits)`` payload slots."""

    @pytest.mark.parametrize("bits", [8, 12, 16, 32, 64])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 24])
    def test_one_shot_and_streamed_agree_share_for_share(self, bits, width):
        """One chunk of every row (what a B2A sends) and uneven row
        blocks (what a matrix triple streams) yield the same shares."""
        n = 37
        sender, receiver = fake_cots(n, seed=bits + width)
        gen = np.random.default_rng(bits * 100 + width)
        mask = ring_mask_u64(bits)
        corr = gen.integers(0, 1 << 63, (n, width), dtype=np.uint64) & mask
        choices = gen.integers(0, 2, n).astype(np.uint8)
        tweaks = np.arange(5000, 5000 + n, dtype=np.uint64)
        counter = CountingCrhf()

        s, t, _, _ = gilboa_pair(sender, receiver, corr, choices, bits, tweaks, n, counter)
        # Sender hashes both pads of a COT, receiver one; never more
        # hashes than it takes to cover ``width`` lanes.
        assert counter.blocks == 3 * n * -(-width // lanes_per_hash(bits))
        assert np.array_equal((s + t) & mask, corr * choices[:, None] & mask)
        assert s.max() <= mask and t.max() <= mask

        for chunk_rows in (1, 5, 36, n + 1):  # uneven splits, one short tail
            s_stream, t_stream, _, _ = gilboa_pair(
                sender, receiver, corr, choices, bits, tweaks, chunk_rows
            )
            assert np.array_equal(s_stream, s) and np.array_equal(t_stream, t)

    def test_pads_of_one_cot_are_distinct_lanes(self):
        """Width-8 pads on a 16-bit ring are the eight uint16 lanes of ONE
        hash; a ninth slot starts the next hash at tweak + 2^48."""
        n, bits = 6, 16
        _, receiver = fake_cots(n, seed=3)
        tweaks = np.arange(n, dtype=np.uint64)
        zero = np.zeros(n, dtype=np.uint8)  # receiver's share is then the bare pad

        def pads(width):
            def send(ch):
                ch.recv_lanes(n, 1)
                ch.send_lanes(np.zeros(n * width, dtype=np.uint64), bits)

            _, got, _, _ = run_pair(
                send, lambda ch: next(gilboa_receive(ch, receiver, zero, width, bits, tweaks, n))[1]
            )
            return got

        first = DEFAULT_CRHF.hash_tweaked(receiver.y, tweaks).view("<u2")
        second = DEFAULT_CRHF.hash_tweaked(receiver.y, tweaks + (np.uint64(1) << np.uint64(48)))
        assert np.array_equal(pads(8), first)
        assert np.array_equal(pads(9), np.hstack([first, second.view("<u2")[:, :1]]))

class TestGilboaPrimitive:
    @pytest.mark.parametrize("bits,width", [(16, 1), (32, 3), (64, 2)])
    def test_shares_sum_to_selected_correlation(self, bits, width):
        n = 40
        sender, receiver = fake_cots(n, seed=bits)
        gen = np.random.default_rng(9)
        mask = ring_mask_u64(bits)
        corr = gen.integers(0, 1 << min(bits, 63), (n, width), dtype=np.uint64) & mask
        choices = gen.integers(0, 2, n).astype(np.uint8)
        tweaks = np.arange(100, 100 + n, dtype=np.uint64)

        s, t, _, _ = gilboa_pair(sender, receiver, corr, choices, bits, tweaks, n)
        expect = (corr * choices[:, None].astype(np.uint64)) & mask
        assert np.array_equal((s + t) & mask, expect)

    def test_half_message_wire_cost(self):
        """Per COT: one derandomization bit + width ``bits``-wide lanes."""
        n, bits, width = 32, 32, 4
        sender, receiver = fake_cots(n)
        corr = np.zeros((n, width), dtype=np.uint64)
        tweaks = np.arange(n, dtype=np.uint64)
        _, _, st_s, st_r = gilboa_pair(
            sender, receiver, corr, np.ones(n, np.uint8), bits, tweaks, n
        )
        assert st_s.bytes_sent == n * width * 4  # corrections only, 4-byte lanes
        assert st_r.bytes_sent == 8 + (n + 7) // 8  # packed bits + header
        assert st_s.messages_sent == st_r.messages_sent == 1

    def test_empty_batch_still_sends_both_frames(self):
        """Zero rows: the correction bits and one empty payload frame,
        so a B2A of nothing keeps its message count."""
        sender, receiver = fake_cots(0)
        corr = np.zeros((0, 1), dtype=np.uint64)
        tweaks = np.zeros(0, dtype=np.uint64)
        s, t, st_s, st_r = gilboa_pair(
            sender, receiver, corr, np.zeros(0, np.uint8), 16, tweaks, 1
        )
        assert s.shape == t.shape == (0, 1)
        assert (st_s.messages_sent, st_s.bytes_sent) == (1, 0)
        assert (st_r.messages_sent, st_r.bytes_sent) == (1, 8)


class TestRingMask:
    def test_bad_ring_width_rejected(self):
        with pytest.raises(ParameterError):
            ring_mask_u64(65)
        with pytest.raises(ParameterError):
            ring_mask_u64(0)


class TestDealerMatrixTriples:
    def test_relation_holds(self):
        t0, t1 = dealer_matrix_triples(4, 6, 5, 32, np.random.default_rng(2))
        mask = ring_mask_u64(32)
        a = (t0.a + t1.a) & mask
        b = (t0.b + t1.b) & mask
        assert np.array_equal((t0.c + t1.c) & mask, (a @ b) & mask)
        assert t0.dims == (4, 6, 5)

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            from repro.mpc.triples import MatrixTriples

            MatrixTriples(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((2, 5)))
