"""Arithmetic (mod 2^k) Beaver triples via Gilboa multiplication."""

import numpy as np
import pytest

from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.errors import ParameterError
from repro.mpc.triples import (
    RingTriples,
    dealer_matrix_triples,
    dealer_ring_triples,
    generate_ring_triples,
    gilboa_receive,
    gilboa_receive_stream,
    gilboa_send,
    gilboa_send_stream,
    mul_shared,
    ring_mask_u64,
    ring_triple_cots,
)
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool

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


def lanes_per_hash(bits):
    """Ring pads one 128-bit hash output yields: its narrowest lanes >= bits."""
    return 128 // next(w for w in (8, 16, 32, 64) if w >= bits)


class TestPadPacking:
    """One hash output pads ``lanes_per_hash(bits)`` payload slots."""

    @pytest.mark.parametrize("bits", [8, 12, 16, 32, 64])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 24])
    def test_one_shot_and_streamed_agree_share_for_share(self, bits, width):
        n = 37
        sender, receiver = fake_cots(n, seed=bits + width)
        gen = np.random.default_rng(bits * 100 + width)
        mask = ring_mask_u64(bits)
        corr = gen.integers(0, 1 << 63, (n, width), dtype=np.uint64) & mask
        choices = gen.integers(0, 2, n).astype(np.uint8)
        tweaks = np.arange(5000, 5000 + n, dtype=np.uint64)
        counter = CountingCrhf()

        s, t, _, _ = run_pair(
            lambda ch: gilboa_send(ch, sender, corr, bits, tweaks, counter),
            lambda ch: gilboa_receive(ch, receiver, choices, width, bits, tweaks, counter),
        )
        # Sender hashes both pads of a COT, receiver one; never more
        # hashes than it takes to cover ``width`` lanes.
        assert counter.blocks == 3 * n * -(-width // lanes_per_hash(bits))
        assert np.array_equal((s + t) & mask, corr * choices[:, None] & mask)
        assert s.max() <= mask and t.max() <= mask

        for chunk_rows in (1, 5, 36, n, n + 1):  # uneven splits, one short tail
            def stream_send(ch):
                out = np.empty((n, width), dtype=np.uint64)
                for start, share in gilboa_send_stream(
                    ch, sender, lambda a, b: corr[a:b], width, bits, tweaks, chunk_rows
                ):
                    out[start : start + share.shape[0]] = share
                return out

            def stream_receive(ch):
                out = np.empty((n, width), dtype=np.uint64)
                for start, share in gilboa_receive_stream(
                    ch, receiver, choices, width, bits, tweaks, chunk_rows
                ):
                    out[start : start + share.shape[0]] = share
                return out

            s_stream, t_stream, _, _ = run_pair(stream_send, stream_receive)
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
                ch.recv_bits()
                ch.send_ring(np.zeros(n * width, dtype=np.uint64))

            _, got, _, _ = run_pair(
                send, lambda ch: gilboa_receive(ch, receiver, zero, width, bits, tweaks)
            )
            return got

        first = DEFAULT_CRHF.hash_tweaked(receiver.y, tweaks).view("<u2")
        second = DEFAULT_CRHF.hash_tweaked(receiver.y, tweaks + (np.uint64(1) << np.uint64(48)))
        assert np.array_equal(pads(8), first)
        assert np.array_equal(pads(9), np.hstack([first, second.view("<u2")[:, :1]]))

    def test_ring_triples_hash_three_blocks_per_cot(self, monkeypatch):
        """Scalar cross terms are width 1: one hash per pad, as before."""
        n, bits = 10, 16
        n_cots = ring_triple_cots(n, bits)
        send_f, recv_f = fake_cots(n_cots, seed=3)
        send_r, recv_r = fake_cots(n_cots, seed=4)
        counter = CountingCrhf()
        monkeypatch.setattr(DEFAULT_CRHF, "hash_tweaked", counter.hash_tweaked)
        run_pair(
            lambda ch: generate_ring_triples(
                ch, n, bits, CotPool(sender=send_f), CotPool(receiver=recv_r),
                np.random.default_rng(10), party=0,
            ),
            lambda ch: generate_ring_triples(
                ch, n, bits, CotPool(sender=send_r), CotPool(receiver=recv_f),
                np.random.default_rng(20), party=1,
            ),
        )
        assert counter.blocks == 2 * 3 * n * bits  # 3 n bits per direction


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

        s, t, _, _ = run_pair(
            lambda ch: gilboa_send(ch, sender, corr, bits, tweaks),
            lambda ch: gilboa_receive(ch, receiver, choices, width, bits, tweaks),
        )
        expect = (corr * choices[:, None].astype(np.uint64)) & mask
        assert np.array_equal((s + t) & mask, expect)

    def test_half_message_wire_cost(self):
        """Per COT: one derandomization bit + width ring elements."""
        n, bits, width = 32, 32, 4
        sender, receiver = fake_cots(n)
        corr = np.zeros((n, width), dtype=np.uint64)
        tweaks = np.arange(n, dtype=np.uint64)
        _, _, st_s, st_r = run_pair(
            lambda ch: gilboa_send(ch, sender, corr, bits, tweaks),
            lambda ch: gilboa_receive(ch, receiver, np.ones(n, np.uint8), width, bits, tweaks),
        )
        assert st_s.bytes_sent == n * width * 8  # corrections only
        assert st_r.bytes_sent == 8 + (n + 7) // 8  # packed bits + header


class TestRingTriples:
    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_generated_triples_satisfy_relation(self, bits):
        n = 24
        n_cots = ring_triple_cots(n, bits)
        send_f, recv_f = fake_cots(n_cots, seed=3)  # fwd: P0 is sender
        send_r, recv_r = fake_cots(n_cots, seed=4)  # rev: P1 is sender

        def p0(ch):
            return generate_ring_triples(
                ch, n, bits, CotPool(sender=send_f), CotPool(receiver=recv_r),
                np.random.default_rng(10), party=0,
            )

        def p1(ch):
            return generate_ring_triples(
                ch, n, bits, CotPool(sender=send_r), CotPool(receiver=recv_f),
                np.random.default_rng(20), party=1,
            )

        t0, t1, _, _ = run_pair(p0, p1)
        mask = ring_mask_u64(bits)
        a = (t0.a + t1.a) & mask
        b = (t0.b + t1.b) & mask
        c = (t0.c + t1.c) & mask
        assert np.array_equal(c, (a * b) & mask)
        # Shares alone look uniform, not like the plaintext product.
        assert not np.array_equal(t0.c, c)

    def test_dealer_triples_satisfy_relation(self):
        t0, t1 = dealer_ring_triples(50, 32, np.random.default_rng(7))
        mask = ring_mask_u64(32)
        a = (t0.a + t1.a) & mask
        b = (t0.b + t1.b) & mask
        assert np.array_equal((t0.c + t1.c) & mask, (a * b) & mask)

    def test_take_consumes(self):
        t = RingTriples(np.arange(10), np.arange(10), np.zeros(10), bits=8)
        head = t.take(4)
        assert len(head) == 4 and len(t) == 6
        with pytest.raises(ParameterError):
            t.take(7)

    def test_bad_ring_width_rejected(self):
        with pytest.raises(ParameterError):
            ring_mask_u64(65)
        with pytest.raises(ParameterError):
            ring_mask_u64(0)


class TestBeaverMultiplication:
    def test_mul_shared_reconstructs_product(self):
        bits, n = 16, 30
        gen = np.random.default_rng(11)
        mask = ring_mask_u64(bits)
        t0, t1 = dealer_ring_triples(n, bits, gen)
        x = gen.integers(0, 1 << bits, n, dtype=np.uint64)
        y = gen.integers(0, 1 << bits, n, dtype=np.uint64)
        x0 = gen.integers(0, 1 << bits, n, dtype=np.uint64)
        y0 = gen.integers(0, 1 << bits, n, dtype=np.uint64)
        s0, s1, _, _ = run_pair(
            lambda ch: mul_shared(ch, t0, x0, y0, 0),
            lambda ch: mul_shared(ch, t1, (x - x0) & mask, (y - y0) & mask, 1),
        )
        assert np.array_equal((s0 + s1) & mask, (x * y) & mask)


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
