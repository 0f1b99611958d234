"""SPCOT protocol tests: the w = v XOR u*Delta invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parties import ScriptedChannel, frame

from repro.crypto import blocks
from repro.crypto.prg import AesTreePrg, ChaChaTreePrg
from repro.errors import ProtocolError
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch
from repro.spcot.protocol import cots_needed, spcot_receive_batch, spcot_send_batch


def run_spcot(pools, delta, rng, prg_s, prg_r, depth, alpha, tweak=0):
    """One SPCOT instance: the shipped one-shot protocol with a single tree."""
    ps, pr = pools
    w, (v, holes), s_stats, r_stats = run_pair(
        lambda ch: spcot_send_batch(ch, ps, delta, prg_s, depth, 1, rng, tweak_bases=[tweak]),
        lambda ch: spcot_receive_batch(ch, pr, [alpha], prg_r, depth, tweak_bases=[tweak]),
    )
    assert holes[0] == alpha
    return w[0], v[0], s_stats, r_stats


def check_invariant(w, v, delta, alpha):
    u = np.zeros(w.shape[0], dtype=np.uint8)
    u[alpha] = 1
    expect = blocks.xor(v, blocks.mul_bit(delta, u))
    return bool(np.all(blocks.equal(w, expect)))


class TestBinary:
    @pytest.mark.parametrize("alpha", [0, 1, 15, 16, 31])
    def test_invariant_holds(self, cot_pools, delta, rng, alpha):
        w, v, _, _ = run_spcot(
            cot_pools, delta, rng, AesTreePrg(2), AesTreePrg(2), 5, alpha
        )
        assert w.shape == (32, 2)
        assert check_invariant(w, v, delta, alpha)

    def test_non_alpha_leaves_equal(self, cot_pools, delta, rng):
        alpha = 10
        w, v, _, _ = run_spcot(
            cot_pools, delta, rng, ChaChaTreePrg(2), ChaChaTreePrg(2), 5, alpha
        )
        mask = np.ones(32, dtype=bool)
        mask[alpha] = False
        assert np.all(blocks.equal(w[mask], v[mask]))
        assert not blocks.equal(w[alpha : alpha + 1], v[alpha : alpha + 1])[0]

    def test_consumes_log_leaves_cots(self, cot_pools, delta, rng):
        ps, pr = cot_pools
        before = ps.remaining
        run_spcot(cot_pools, delta, rng, AesTreePrg(2), AesTreePrg(2), 6, 3)
        assert before - ps.remaining == 6 == cots_needed(64, 2)


class TestMAry:
    @pytest.mark.parametrize("arity,depth", [(4, 3), (8, 2)])
    def test_invariant_holds(self, cot_pools, delta, rng, arity, depth):
        alpha = int(rng.integers(0, arity**depth))
        w, v, _, _ = run_spcot(
            cot_pools, delta, rng, ChaChaTreePrg(arity), ChaChaTreePrg(arity), depth, alpha
        )
        assert check_invariant(w, v, delta, alpha)

    def test_mary_consumes_same_cots_as_binary(self, cot_pools, delta, rng):
        """Section 4.2: log2(l) correlations regardless of arity."""
        ps, _ = cot_pools
        before = ps.remaining
        run_spcot(cot_pools, delta, rng, ChaChaTreePrg(4), ChaChaTreePrg(4), 3, 7)
        assert before - ps.remaining == 6  # log2(4^3)
        assert cots_needed(64, 4) == cots_needed(64, 2) == 6

    def test_mary_sends_more_bytes_than_binary(self, cot_pools, delta, rng, shared_cots):
        """Figure 7(b): communication grows with the arity."""
        _, _, s2, _ = run_spcot(
            cot_pools, delta, rng, ChaChaTreePrg(2), ChaChaTreePrg(2), 6, 11
        )
        s_batch, r_batch = shared_cots
        pools4 = (
            CotPool(sender=CotSenderBatch(s_batch.delta, s_batch.z.copy())),
            CotPool(receiver=CotReceiverBatch(r_batch.x.copy(), r_batch.y.copy())),
        )
        _, _, s4, _ = run_spcot(
            pools4, delta, rng, ChaChaTreePrg(4), ChaChaTreePrg(4), 3, 11
        )
        assert s4.bytes_sent > s2.bytes_sent

    @given(alpha=st.integers(0, 63))
    @settings(max_examples=10, deadline=None)
    def test_property_4ary_random_alphas(self, alpha, shared_cots, delta):
        s_batch, r_batch = shared_cots
        pools = (
            CotPool(sender=CotSenderBatch(s_batch.delta, s_batch.z.copy())),
            CotPool(receiver=CotReceiverBatch(r_batch.x.copy(), r_batch.y.copy())),
        )
        rng = np.random.default_rng(alpha)
        w, v, _, _ = run_spcot(
            pools, delta, rng, ChaChaTreePrg(4), ChaChaTreePrg(4), 3, alpha
        )
        assert check_invariant(w, v, delta, alpha)


class TestMixedPrg:
    def test_aes_binary_tree_protocol(self, cot_pools, delta, rng):
        """The CPU-baseline configuration (2-ary AES)."""
        w, v, _, _ = run_spcot(
            cot_pools, delta, rng, AesTreePrg(2), AesTreePrg(2), 4, 13
        )
        assert check_invariant(w, v, delta, 13)

    def test_two_instances_back_to_back(self, cot_pools, delta, rng):
        """Distinct tweak bases keep parallel instances independent."""
        w1, v1, _, _ = run_spcot(
            cot_pools, delta, rng, ChaChaTreePrg(4), ChaChaTreePrg(4), 2, 5, tweak=0
        )
        w2, v2, _, _ = run_spcot(
            cot_pools, delta, rng, ChaChaTreePrg(4), ChaChaTreePrg(4), 2, 5, tweak=1 << 20
        )
        assert check_invariant(w1, v1, delta, 5)
        assert check_invariant(w2, v2, delta, 5)
        assert not np.all(blocks.equal(w1, w2))


class TestMalformedPeerMessages:
    """A peer-controlled length is a ProtocolError on either side, never a
    ParameterError (the caller's own arguments were fine) or a numpy
    broadcasting error."""

    DEPTH, T = 3, 2
    N_OTS = T * cots_needed(4**DEPTH, 4)  # 12
    REPLY = DEPTH * T * 4 + T  # masked sums of every level, then psi

    def receive(self, cot_pools, inbound):
        _, pr = cot_pools
        return spcot_receive_batch(
            ScriptedChannel(inbound), pr, [5, 9], ChaChaTreePrg(4), self.DEPTH
        )

    @pytest.mark.parametrize("n_bits", [N_OTS - 1, N_OTS + 1, 0])
    def test_sender_rejects_wrong_length_corrections(self, cot_pools, delta, rng, n_bits):
        ps, _ = cot_pools
        channel = ScriptedChannel([frame(n_bits, 1)])
        with pytest.raises(ProtocolError, match=f"{self.N_OTS} 1-bit lanes"):
            spcot_send_batch(channel, ps, delta, ChaChaTreePrg(4), self.DEPTH, self.T, rng)
        assert channel.stats.messages_sent == 0  # nothing was answered

    @pytest.mark.parametrize("n_e0,n_e1", [(N_OTS - 1, N_OTS), (N_OTS, N_OTS + 1)])
    def test_receiver_rejects_wrong_length_ot_reply(self, cot_pools, n_e0, n_e1):
        inbound = [bytes(16 * n_e0), bytes(16 * n_e1), bytes(16 * self.REPLY)]
        with pytest.raises(ProtocolError, match=f"frame of {self.N_OTS} blocks"):
            self.receive(cot_pools, inbound)

    @pytest.mark.parametrize("n_reply", [REPLY - 1, REPLY + 1, T])
    def test_receiver_rejects_wrong_length_sums_and_psi(self, cot_pools, n_reply):
        inbound = [bytes(16 * self.N_OTS)] * 2 + [bytes(16 * n_reply)]
        with pytest.raises(ProtocolError, match=f"frame of {self.REPLY} blocks"):
            self.receive(cot_pools, inbound)

    def test_well_formed_script_is_accepted(self, cot_pools):
        """The same script at the right lengths goes through (garbage in,
        garbage out): the rejections above are about length alone."""
        inbound = [bytes(16 * self.N_OTS)] * 2 + [bytes(16 * self.REPLY)]
        v, holes = self.receive(cot_pools, inbound)
        assert v.shape == (self.T, 4**self.DEPTH, 2) and list(holes) == [5, 9]
