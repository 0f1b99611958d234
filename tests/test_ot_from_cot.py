"""Derandomized 1-out-of-2 and 1-out-of-N OT-from-COT tests."""

import numpy as np
import pytest
from parties import ScriptedChannel, frame

from repro.crypto import blocks
from repro.errors import ParameterError, ProtocolError
from repro.ot.channel import PartyError, run_pair
from repro.ot.cot import CotPool
from repro.ot.ot_from_cot import (
    ot_n_receive_from_cot,
    ot_n_reply_bytes,
    ot_n_send_from_cot,
    ot_receive_from_cot,
    ot_reply_bytes,
    ot_send_from_cot,
)
from repro.ot.testing import fake_cots


def run_ot(pools, rng, n, tweak_base=0):
    ps, pr = pools
    m0 = blocks.random_blocks(n, rng)
    m1 = blocks.random_blocks(n, rng)
    choices = rng.integers(0, 2, n).astype(np.uint8)
    _, got, _, _ = run_pair(
        lambda ch: ot_send_from_cot(ch, ps.take_sender(n), m0, m1, tweak_base),
        lambda ch: ot_receive_from_cot(ch, pr.take_receiver(n), choices, tweak_base),
    )
    return m0, m1, choices, got


class TestChosenMessageOt:
    def test_receiver_gets_chosen(self, cot_pools, rng):
        m0, m1, choices, got = run_ot(cot_pools, rng, 64)
        expect = np.where(choices[:, None].astype(bool), m1, m0)
        assert np.array_equal(got, expect)

    def test_receiver_blind_to_other(self, cot_pools, rng):
        m0, m1, choices, got = run_ot(cot_pools, rng, 64)
        other = np.where(choices[:, None].astype(bool), m0, m1)
        assert not np.any(blocks.equal(got, other))

    def test_sequential_batches_from_one_pool(self, cot_pools, rng):
        for tweak in (0, 1000, 2000):
            m0, m1, choices, got = run_ot(cot_pools, rng, 32, tweak_base=tweak)
            expect = np.where(choices[:, None].astype(bool), m1, m0)
            assert np.array_equal(got, expect)

    def test_length_mismatch_raises(self, cot_pools, rng):
        ps, pr = cot_pools
        m = blocks.random_blocks(4, rng)
        with pytest.raises(PartyError, match="party 'a'") as err:
            run_pair(
                lambda ch: ot_send_from_cot(ch, ps.take_sender(5), m, m),
                lambda ch: ot_receive_from_cot(
                    ch, pr.take_receiver(5), np.zeros(5, dtype=np.uint8)
                ),
            )
        assert isinstance(err.value.__cause__, ProtocolError)

    def test_online_communication_is_two_blocks_plus_bit(self, cot_pools, rng):
        ps, pr = cot_pools
        n = 100
        m0 = blocks.random_blocks(n, rng)
        m1 = blocks.random_blocks(n, rng)
        _, _, s_stats, r_stats = run_pair(
            lambda ch: ot_send_from_cot(ch, ps.take_sender(n), m0, m1),
            lambda ch: ot_receive_from_cot(
                ch, pr.take_receiver(n), np.zeros(n, dtype=np.uint8)
            ),
        )
        assert s_stats.bytes_sent == 2 * 16 * n  # the two masked vectors
        assert r_stats.bytes_sent == len(frame(n, 1))  # packed corrections


class TestNarrowPayloads:
    """With ``bits`` the reply is one message of packed lanes."""

    @pytest.mark.parametrize("bits", [1, 5, 16, 33, 64])
    def test_receiver_gets_chosen_and_reply_is_packed(self, cot_pools, rng, bits):
        ps, pr = cot_pools
        n = 37
        m0, m1 = rng.integers(0, 1 << bits, (2, n), dtype=np.uint64)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        _, got, s_stats, r_stats = run_pair(
            lambda ch: ot_send_from_cot(ch, ps.take_sender(n), m0, m1, 7, bits=bits),
            lambda ch: ot_receive_from_cot(ch, pr.take_receiver(n), choices, 7, bits=bits),
        )
        assert np.array_equal(got, np.where(choices.astype(bool), m1, m0))
        assert s_stats.messages_sent == 1
        assert s_stats.bytes_sent == ot_reply_bytes(n, bits)
        assert r_stats.bytes_sent == len(frame(n, 1))

    def test_reply_sizes(self):
        assert ot_reply_bytes(96, 1) == 8 + 24  # two 1-bit lanes per OT, and the count
        assert ot_reply_bytes(96, 16) == 2 * 2 * 96
        assert ot_reply_bytes(96) == 2 * 16 * 96

    def test_bad_width_is_the_callers_error(self, cot_pools):
        ps, _ = cot_pools
        with pytest.raises(ParameterError):
            ot_send_from_cot(None, ps.take_sender(2), np.zeros(2), np.zeros(2), bits=0)


class TestOneOutOfN:
    """1-out-of-16 OT of 2-bit lanes on 4 COTs per instance (the
    comparison's digit OT)."""

    def test_receiver_gets_chosen_lane_in_one_packed_reply(self, rng):
        n = 37
        sender, receiver = fake_cots(4 * n, seed=5)
        table = rng.integers(0, 4, (n, 16), dtype=np.uint64)
        choices = rng.integers(0, 16, n, dtype=np.uint64)
        choices[:16] = np.arange(16)  # every message index at least once
        _, got, s_stats, r_stats = run_pair(
            lambda ch: ot_n_send_from_cot(ch, sender, table, 2, tweak_base=9),
            lambda ch: ot_n_receive_from_cot(ch, receiver, choices, 16, 2, tweak_base=9),
        )
        assert np.array_equal(got, table[np.arange(n), choices])
        assert s_stats.messages_sent == 1
        assert s_stats.bytes_sent == ot_n_reply_bytes(n, 16, 2) == 4 * n
        assert r_stats.bytes_sent == len(frame(4 * n, 1))

    def test_unchosen_pads_do_not_cancel(self):
        """Every message reads its own slice of each hash.  XORed
        whole-hash pads would make ``pad_j ^ pad_j'`` the same for every
        pair of indices differing in the same choice bit, handing the
        receiver XORs of messages it did not choose."""
        n = 64
        sender, _ = fake_cots(4 * n, seed=6)
        replies = []

        class Capture(ScriptedChannel):
            def send_bytes(self, data):
                replies.append(data)

        # An all-zero table: the reply is the pads themselves.
        ot_n_send_from_cot(
            Capture([frame(4 * n, 1)]), sender, np.zeros((n, 16), np.uint64), 2
        )
        words = np.frombuffer(replies[0], dtype="<u4").astype(np.uint64)
        pads = (words[:, None] >> (2 * np.arange(16, dtype=np.uint64))) & np.uint64(3)
        same = (pads[:, 0] ^ pads[:, 1]) == (pads[:, 2] ^ pads[:, 3])
        assert same.mean() < 0.5  # independent 2-bit pads agree 1 time in 4

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_peer_lengths_are_protocol_errors(self, delta):
        n = 5
        sender, receiver = fake_cots(4 * n)
        with pytest.raises(ProtocolError, match="20 1-bit lanes"):
            ot_n_send_from_cot(
                ScriptedChannel([frame(4 * n + delta, 1)]), sender,
                np.zeros((n, 16), np.uint64), 2,
            )
        with pytest.raises(ProtocolError, match="5 32-bit lanes"):
            ot_n_receive_from_cot(
                ScriptedChannel([bytes(4 * n + delta)]), receiver,
                np.zeros(n, np.uint64), 16, 2,
            )

    def test_cot_count_and_shape_are_the_callers_error(self):
        sender, _ = fake_cots(8)
        with pytest.raises(ProtocolError, match="needs 12 COTs"):
            ot_n_send_from_cot(None, sender, np.zeros((3, 16), np.uint64), 2)
        with pytest.raises(ParameterError):
            ot_n_send_from_cot(None, sender, np.zeros((2, 12), np.uint64), 2)
        with pytest.raises(ParameterError):
            ot_n_reply_bytes(1, 64, 2)  # 128 lanes' bits exceed one hash word

