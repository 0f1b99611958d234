"""Gilboa multiplication over COTs (the arithmetic primitive under matrix
triples and B2A) and the matrix-triple dealer."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (
    generate_matrix_triples_reference,
    gilboa_receive_reference,
    gilboa_send_reference,
)
from strategies import GilboaStrategies, lanes_per_hash

from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.errors import ParameterError
from repro.mpc.matmul import (
    GILBOA_CHUNK_ROWS,
    MatmulDims,
    generate_matrix_triples,
    matmul_cots,
)
from repro.mpc.triples import (
    dealer_matrix_triples,
    gilboa_receive,
    gilboa_send,
    ring_mask_u64,
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


def gilboa_pair(
    sender, receiver, corr, choices, bits, tweaks, chunk_rows,
    crhfs=(DEFAULT_CRHF, DEFAULT_CRHF),
):
    """Both halves of one Gilboa run (``crhfs``: the sender's CRHF and
    the receiver's), each party's share chunks stitched back into its
    ``(n, width)`` matrix, plus both channel stats."""
    n, width = corr.shape

    def stitch(chunks):
        out = np.empty((n, width), dtype=np.uint64)
        for start, share in chunks:
            out[start : start + share.shape[0]] = share
        return out

    return run_pair(
        lambda ch: stitch(gilboa_send(
            ch, sender, lambda a, b: corr[a:b], width, bits, tweaks, chunk_rows, crhfs[0]
        )),
        lambda ch: stitch(gilboa_receive(
            ch, receiver, choices, width, bits, tweaks, chunk_rows, crhfs[1]
        )),
    )


def recording(party):
    """``party`` (a channel callable) returning ``(result, frames)``:
    every frame it sent, in order."""

    def run(ch):
        frames, send = [], ch.send_bytes
        ch.send_bytes = lambda data: frames.append(bytes(data)) or send(data)
        return party(ch), frames

    return run


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
        snd, rcv = CountingCrhf(), CountingCrhf()

        s, t, _, _ = gilboa_pair(sender, receiver, corr, choices, bits, tweaks, n, (snd, rcv))
        # Sender hashes both pads of a COT, receiver one; never more
        # hashes than it takes to cover ``width`` lanes, all in one call.
        assert snd.blocks + rcv.blocks == 3 * n * -(-width // lanes_per_hash(bits))
        assert len(snd.calls) == len(rcv.calls) == 1
        assert np.array_equal((s + t) & mask, corr * choices[:, None] & mask)
        assert s.max() <= mask and t.max() <= mask

        for chunk_rows in (1, 5, 36, n + 1):  # uneven splits, one short tail
            snd, rcv = CountingCrhf(), CountingCrhf()
            s_stream, t_stream, _, _ = gilboa_pair(
                sender, receiver, corr, choices, bits, tweaks, chunk_rows, (snd, rcv)
            )
            assert np.array_equal(s_stream, s) and np.array_equal(t_stream, t)
            assert len(snd.calls) == len(rcv.calls) == -(-n // chunk_rows)

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

    def test_ledger_triples_hash_exactly_this_many_blocks(self, monkeypatch):
        """The ledger's two 16-bit triples, (4,24,24) and (4,24,12): the
        sender hashes 43 008 blocks and the receiver 21 504 (64 512 in
        all), one ``hash_tweaked`` call per party per row block."""
        bits, calls, chunks = 16, [], 0
        inner = DEFAULT_CRHF.hash_tweaked
        monkeypatch.setattr(
            DEFAULT_CRHF, "hash_tweaked",
            lambda x, tweaks: calls.append((threading.current_thread().name, x.shape[0]))
            or inner(x, tweaks),
        )
        for m, k, n in ((4, 24, 24), (4, 24, 12)):
            dims = MatmulDims(m, k, n)
            sender, receiver = fake_cots(matmul_cots(dims, bits), seed=n)
            pools = (CotPool(receiver=receiver), CotPool(sender=sender))

            def party(p):
                def run(ch):
                    threading.current_thread().name = ("receiver", "sender")[p]
                    return generate_matrix_triples(
                        ch, dims, bits, pools[p], np.random.default_rng(p), party=p
                    )

                return run

            run_pair(party(0), party(1))
            chunks += sum(-(-t // GILBOA_CHUNK_ROWS) for t in (m * k * bits, k * n * bits))
        per_party = {
            who: [size for name, size in calls if name == who] for who in ("sender", "receiver")
        }
        assert {who: sum(sizes) for who, sizes in per_party.items()} == {
            "sender": 43008, "receiver": 21504
        }
        assert [len(sizes) for sizes in per_party.values()] == [chunks, chunks] == [7, 7]


class TestAgainstOracle:
    """The lane-dtype Gilboa path against the uint64 one it replaced
    (``tests/oracles.py``): the same shares and the same frames, byte
    for byte, from the same COTs."""

    @settings(max_examples=150, deadline=None)
    @given(case=GilboaStrategies.primitive_cases())
    def test_primitive_matches_reference(self, case):
        bits, width, rows, chunk_rows, seed = case
        sender, receiver = fake_cots(rows, seed=seed)
        gen = np.random.default_rng(seed)
        corr = gen.integers(0, 1 << 63, (rows, width), dtype=np.uint64) & ring_mask_u64(bits)
        choices = gen.integers(0, 2, rows).astype(np.uint8)
        tweaks = np.arange(seed, seed + rows, dtype=np.uint64)

        def run(send, receive):
            return run_pair(
                recording(lambda ch: list(send(
                    ch, sender, lambda a, b: corr[a:b], width, bits, tweaks, chunk_rows
                ))),
                recording(lambda ch: list(receive(
                    ch, receiver, choices, width, bits, tweaks, chunk_rows
                ))),
            )

        got = run(gilboa_send, gilboa_receive)
        want = run(gilboa_send_reference, gilboa_receive_reference)
        for (chunks, frames), (ref_chunks, ref_frames) in zip(got[:2], want[:2]):
            assert frames == ref_frames
            assert [start for start, _ in chunks] == [start for start, _ in ref_chunks]
            for (_, share), (_, ref) in zip(chunks, ref_chunks):
                assert np.array_equal(share, ref)
        assert (got[2].messages_sent, got[3].messages_sent) == (
            want[2].messages_sent, want[3].messages_sent
        )

    @settings(max_examples=80, deadline=None)
    @given(case=GilboaStrategies.matrix_cases())
    def test_matrix_triples_match_reference(self, case):
        dims = MatmulDims(*case.dims)
        sender, receiver = fake_cots(matmul_cots(dims, case.bits), seed=case.seed)

        def run(generate):
            def party(p):
                pool = (
                    CotPool(sender=sender) if p == case.ot_sender else CotPool(receiver=receiver)
                )
                return recording(lambda ch: generate(
                    ch, dims, case.bits, pool, np.random.default_rng([case.seed, p]), party=p,
                    ot_sender=case.ot_sender, tweak_base=case.seed, chunk_rows=case.chunk_rows,
                ))

            return run_pair(party(0), party(1))

        got = run(generate_matrix_triples)
        want = run(generate_matrix_triples_reference)
        for (triple, frames), (ref, ref_frames) in zip(got[:2], want[:2]):
            assert frames == ref_frames
            for name in "abc":
                assert np.array_equal(getattr(triple, name), getattr(ref, name))
        mask = ring_mask_u64(case.bits)
        (t0, _), (t1, _) = got[:2]
        a, b = (t0.a + t1.a) & mask, (t0.b + t1.b) & mask
        assert np.array_equal((t0.c + t1.c) & mask, (a @ b) & mask)


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
