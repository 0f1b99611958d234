"""Derandomized OT-from-COT and Figure 2 conversion tests."""

import numpy as np
import pytest

from repro.crypto import blocks
from repro.errors import ProtocolError
from repro.ot.channel import PartyError, run_pair
from repro.ot.cot import CotPool
from repro.ot.ot_from_cot import (
    cot_to_random_ot_receiver,
    cot_to_random_ot_sender,
    ot_receive_from_cot,
    ot_send_from_cot,
)


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
        assert r_stats.bytes_sent == 8 + (n + 7) // 8  # packed corrections


class TestRandomOtConversion:
    def test_figure2_conversion_consistent(self, shared_cots):
        s, r = shared_cots
        h0, h1 = cot_to_random_ot_sender(s)
        bits, hb = cot_to_random_ot_receiver(r)
        chosen = np.where(bits[:, None].astype(bool), h1, h0)
        assert np.array_equal(chosen, hb)

    def test_figure2_unchosen_differs(self, shared_cots):
        s, r = shared_cots
        h0, h1 = cot_to_random_ot_sender(s)
        bits, hb = cot_to_random_ot_receiver(r)
        other = np.where(bits[:, None].astype(bool), h0, h1)
        assert not np.any(blocks.equal(other, hb))

    def test_tweak_base_changes_pads(self, shared_cots):
        s, _ = shared_cots
        a0, _ = cot_to_random_ot_sender(s, tweak_base=0)
        b0, _ = cot_to_random_ot_sender(s, tweak_base=10_000)
        assert not np.any(blocks.equal(a0, b0))
