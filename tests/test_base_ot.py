"""Schnorr group + PKC base OT tests (the OTE Init phase)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from parties import ScriptedChannel
from strategies import WireStrategies

from repro.crypto import blocks
from repro.crypto.group import DEFAULT_GROUP, OAKLEY_768_P, FixedBaseExp
from repro.errors import ProtocolError
from repro.ot.base_ot import (
    KAPPA,
    base_cot_receive,
    base_cot_send,
    base_ot_receive,
    base_ot_send,
)
from repro.ot.channel import Channel, PartyError, run_pair
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot


class TestGroup:
    def test_oakley_modulus_is_odd_and_large(self):
        assert OAKLEY_768_P % 2 == 1
        assert OAKLEY_768_P.bit_length() == 768

    def test_generator_is_quadratic_residue(self):
        g = DEFAULT_GROUP.g
        # g = 4 is a QR; its order divides q.
        assert pow(g, DEFAULT_GROUP.q, DEFAULT_GROUP.p) == 1

    def test_exp_inverse(self):
        a = DEFAULT_GROUP.random_scalar()
        ga = DEFAULT_GROUP.gexp(a)
        assert DEFAULT_GROUP.mul(ga, DEFAULT_GROUP.inv(ga)) == 1

    def test_dh_agreement(self):
        a, b = DEFAULT_GROUP.random_scalar(), DEFAULT_GROUP.random_scalar()
        left = DEFAULT_GROUP.exp(DEFAULT_GROUP.gexp(a), b)
        right = DEFAULT_GROUP.exp(DEFAULT_GROUP.gexp(b), a)
        assert left == right

    def test_element_bytes_fixed_width(self):
        assert len(DEFAULT_GROUP.element_bytes(1)) == 96  # 768 bits

    def test_encode_decode_round_trip(self):
        elements = [2, DEFAULT_GROUP.gexp(7), DEFAULT_GROUP.p - 2]
        data = DEFAULT_GROUP.encode(elements)
        assert data == b"".join(map(DEFAULT_GROUP.element_bytes, elements))
        assert DEFAULT_GROUP.decode(data, 3) == elements

    @pytest.mark.parametrize("length", [0, 95, 97, 192])
    def test_decode_refuses_a_wrong_length(self, length):
        with pytest.raises(ProtocolError, match=f"1 group elements must be 96 bytes, got {length}"):
            DEFAULT_GROUP.decode(bytes(length), 1)

    def test_hash_to_key_tweak_separation(self):
        e = DEFAULT_GROUP.gexp(12345)
        assert DEFAULT_GROUP.hash_to_key(e, b"|0") != DEFAULT_GROUP.hash_to_key(e, b"|1")


class TestFixedBaseExp:
    """The windowed fixed-base table must be a drop-in for pow()."""

    def test_gexp_matches_pow_random_scalars(self):
        rng = np.random.default_rng(0xF1)
        for _ in range(16):
            x = int(rng.integers(1, 1 << 62)) * int(rng.integers(1, 1 << 62))
            x %= DEFAULT_GROUP.q
            assert DEFAULT_GROUP.gexp(x) == pow(DEFAULT_GROUP.g, x, DEFAULT_GROUP.p)

    def test_gexp_matches_pow_full_width_scalars(self):
        for _ in range(4):
            x = DEFAULT_GROUP.random_scalar()
            assert DEFAULT_GROUP.gexp(x) == pow(DEFAULT_GROUP.g, x, DEFAULT_GROUP.p)

    def test_gexp_edge_scalars(self):
        g, p, q = DEFAULT_GROUP.g, DEFAULT_GROUP.p, DEFAULT_GROUP.q
        for x in (0, 1, 2, q - 1, q):
            assert DEFAULT_GROUP.gexp(x) == pow(g, x, p)

    def test_out_of_range_scalars_fall_back_to_pow(self):
        g, p, q = DEFAULT_GROUP.g, DEFAULT_GROUP.p, DEFAULT_GROUP.q
        beyond = (1 << q.bit_length() + 64) + 12345  # past the table
        assert DEFAULT_GROUP.gexp(beyond) == pow(g, beyond, p)
        assert DEFAULT_GROUP.gexp(-3) == pow(g, -3, p)

    def test_standalone_table_small_window(self):
        table = FixedBaseExp(7, 1009, exp_bits=20, window=3)
        for x in (0, 1, 5, 255, (1 << 20) - 1):
            assert table.exp(x) == pow(7, x, 1009)


class TestBaseOt:
    def test_receiver_gets_chosen_messages(self, rng):
        n = 12
        m0 = blocks.random_blocks(n, rng)
        m1 = blocks.random_blocks(n, rng)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        _, got, _, _ = run_pair(
            lambda ch: base_ot_send(ch, m0, m1),
            lambda ch: base_ot_receive(ch, choices),
        )
        expect = np.where(choices[:, None].astype(bool), m1, m0)
        assert np.array_equal(got, expect)

    def test_receiver_never_gets_other_message(self, rng):
        n = 12
        m0 = blocks.random_blocks(n, rng)
        m1 = blocks.random_blocks(n, rng)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        _, got, _, _ = run_pair(
            lambda ch: base_ot_send(ch, m0, m1),
            lambda ch: base_ot_receive(ch, choices),
        )
        other = np.where(choices[:, None].astype(bool), m0, m1)
        assert not np.any(blocks.equal(got, other))

    @pytest.mark.parametrize("constant_choice", [0, 1])
    def test_all_same_choice(self, rng, constant_choice):
        n = 6
        m0 = blocks.random_blocks(n, rng)
        m1 = blocks.random_blocks(n, rng)
        choices = np.full(n, constant_choice, dtype=np.uint8)
        _, got, _, _ = run_pair(
            lambda ch: base_ot_send(ch, m0, m1),
            lambda ch: base_ot_receive(ch, choices),
        )
        assert np.array_equal(got, m1 if constant_choice else m0)

    def test_base_cot_correlation(self, rng):
        n = 16
        delta = blocks.random_blocks(1, rng)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        r, y, _, _ = run_pair(
            lambda ch: base_cot_send(ch, n, delta),
            lambda ch: base_cot_receive(ch, choices, rng),
        )
        assert verify_cot(CotSenderBatch(delta, r), CotReceiverBatch(choices, y))

    def test_shared_fixture_is_valid(self, shared_cots):
        s, r = shared_cots
        assert verify_cot(s, r)
        # sanity: choice bits not constant
        assert 0 < r.x.mean() < 1


def _oracle_pad(group, dh_value, choice, index, message):
    """message XOR SHA-256(element || "|choice|index")[:16], bytewise."""
    digest = hashlib.sha256(
        group.element_bytes(dh_value) + b"|%d|%d" % (choice, index)
    ).digest()
    return bytes(m ^ d for m, d in zip(blocks.to_bytes(message), digest))


def sequential_ot_send(channel, messages0, messages1, group=DEFAULT_GROUP):
    """The per-OT reference schedule (one element message per OT, plain
    ``pow``, one pad at a time) the shipped batched code is checked
    against.  It lives here, not in ``src/``: one path ships."""
    n = messages0.shape[0]
    a = group.random_scalar()
    big_a = pow(group.g, a, group.p)
    channel.send_lanes([n], 64)
    channel.send_bytes(group.element_bytes(big_a))
    payload = b""
    for i in range(n):
        b_elem = int.from_bytes(channel.recv_bytes(), "big")
        dh0 = pow(b_elem, a, group.p)
        dh1 = dh0 * pow(big_a, -a, group.p) % group.p
        payload += _oracle_pad(group, dh0, 0, i, messages0[i : i + 1])
        payload += _oracle_pad(group, dh1, 1, i, messages1[i : i + 1])
    channel.send_bytes(payload)


def sequential_ot_receive(channel, choices, group=DEFAULT_GROUP):
    n = int(channel.recv_lanes(1, 64)[0])
    assert n == len(choices)
    choices = [int(c) for c in choices]
    big_a = int.from_bytes(channel.recv_bytes(), "big")
    scalars = []
    for c in choices:
        b = group.random_scalar()
        b_elem = pow(group.g, b, group.p) * (big_a if c else 1) % group.p
        channel.send_bytes(group.element_bytes(b_elem))
        scalars.append(b)
    payload = channel.recv_bytes()
    out = b""
    for i, (b, c) in enumerate(zip(scalars, choices)):
        cipher = payload[32 * i + 16 * c : 32 * i + 16 * c + 16]
        out += _oracle_pad(
            group, pow(big_a, b, group.p), c, i, blocks.from_bytes(cipher)
        )
    return blocks.from_bytes(out)


class TamperedChannel(Channel):
    """Rewrites the one outgoing message that has ``length`` bytes (a
    Channel, so the codec's typed sends pass through it too)."""

    def __init__(self, inner, length, rewrite):
        super().__init__()
        self.stats = inner.stats
        self._inner = inner
        self._length = length
        self._rewrite = rewrite

    def send_bytes(self, data):
        if len(data) == self._length:
            data = self._rewrite(bytes(data))
        self._inner.send_bytes(data)

    def recv_bytes(self, timeout=None):
        return self._inner.recv_bytes(timeout)


def assert_protocol_error(party_a, party_b, match):
    with pytest.raises(PartyError, match=match) as info:
        run_pair(party_a, party_b, recv_timeout=1.0)
    assert isinstance(info.value.__cause__, ProtocolError)


class TestBatchedSchedule:
    """The shipped wire schedule (one element blob, one payload) must be
    output-equivalent to the sequential per-OT reference above."""

    N = 24

    def run_ot(self, send, receive, seed=77):
        gen = np.random.default_rng(seed)
        m0 = blocks.random_blocks(self.N, gen)
        m1 = blocks.random_blocks(self.N, gen)
        choices = gen.integers(0, 2, self.N).astype(np.uint8)
        _, got, s_stats, r_stats = run_pair(
            lambda ch: send(ch, m0, m1), lambda ch: receive(ch, choices)
        )
        return m0, m1, choices, got, s_stats, r_stats

    def test_batched_equivalent_to_sequential(self):
        """Same inputs -> the same chosen messages on both schedules."""
        m0, m1, choices, got_b, _, _ = self.run_ot(base_ot_send, base_ot_receive)
        _, _, _, got_s, _, _ = self.run_ot(sequential_ot_send, sequential_ot_receive)
        assert np.array_equal(got_b, got_s)
        assert np.array_equal(got_b, np.where(choices[:, None].astype(bool), m1, m0))

    def test_batched_collapses_message_count(self):
        """Receiver: n element messages -> 1; whole protocol O(1) messages."""
        *_, s_seq, r_seq = self.run_ot(sequential_ot_send, sequential_ot_receive)
        *_, s_bat, r_bat = self.run_ot(base_ot_send, base_ot_receive)
        assert r_seq.messages_sent == self.N  # one element per OT
        assert r_bat.messages_sent == 1  # one blob for all OTs
        assert s_bat.messages_sent == s_seq.messages_sent  # n, A, payload
        # Round trips collapse to a constant as well.
        assert r_bat.rounds <= 2 and s_bat.rounds <= 2

    def test_batched_bytes_on_wire_match(self):
        """Batching changes message boundaries, not the element bytes."""
        *_, s_seq, r_seq = self.run_ot(sequential_ot_send, sequential_ot_receive)
        *_, s_bat, r_bat = self.run_ot(base_ot_send, base_ot_receive)
        assert r_bat.bytes_sent == r_seq.bytes_sent
        assert s_bat.bytes_sent == s_seq.bytes_sent

    def test_batched_chosen_message_ot(self, rng):
        """Chosen-message OT (not just base_cot) on the shipped schedule."""
        n = 10
        m0 = blocks.random_blocks(n, rng)
        m1 = blocks.random_blocks(n, rng)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        _, got, _, _ = run_pair(
            lambda ch: base_ot_send(ch, m0, m1),
            lambda ch: base_ot_receive(ch, choices),
        )
        expect = np.where(choices[:, None].astype(bool), m1, m0)
        assert np.array_equal(got, expect)

    def test_mismatched_schedules_fail_loudly(self):
        """The shipped sender against a per-OT receiver must not hang or
        silently mis-deliver."""
        gen = np.random.default_rng(5)
        m0, m1 = blocks.random_blocks(4, gen), blocks.random_blocks(4, gen)
        choices = gen.integers(0, 2, 4).astype(np.uint8)
        assert_protocol_error(
            lambda ch: base_ot_send(ch, m0, m1),
            lambda ch: sequential_ot_receive(ch, choices),
            match="frame of 384 8-bit lanes must be 384 bytes, got 96",
        )


class TestMalformedMessages:
    """Every length the peer controls is checked before it is indexed."""

    def test_truncated_sender_payload_is_a_protocol_error(self, rng):
        n = 6
        m0 = blocks.random_blocks(n, rng)
        m1 = blocks.random_blocks(n, rng)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        assert_protocol_error(
            lambda ch: base_ot_send(
                TamperedChannel(ch, 32 * n, lambda data: data[:-16]), m0, m1
            ),
            lambda ch: base_ot_receive(ch, choices),
            match="frame of 12 blocks must be 192 bytes, got 176",
        )

    @pytest.mark.parametrize("rewrite", [lambda d: d[:-1], lambda d: d + b"\0"])
    def test_wrong_size_correction_matrix_is_a_protocol_error(self, rng, rewrite):
        n = 200
        delta = blocks.random_blocks(1, rng)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        assert_protocol_error(
            lambda ch: base_cot_send(ch, n, delta),
            lambda ch: base_cot_receive(
                TamperedChannel(ch, KAPPA * 25, rewrite), choices, rng
            ),
            match="frame of 3200 8-bit lanes must be 3200 bytes",
        )

    def test_disagreeing_cot_counts_are_a_protocol_error(self, rng):
        """200 and 199 COTs pack into the same 25-byte rows: only the
        announced count tells them apart."""
        delta = blocks.random_blocks(1, rng)
        choices = rng.integers(0, 2, 199).astype(np.uint8)
        assert_protocol_error(
            lambda ch: base_cot_send(ch, 200, delta),
            lambda ch: base_cot_receive(ch, choices, rng),
            match="receiver extends to 199 COTs but sender wants 200",
        )

    @pytest.mark.parametrize("element", [0, 1, DEFAULT_GROUP.p - 1])
    def test_degenerate_sender_element_rejected(self, rng, element):
        choices = rng.integers(0, 2, 4).astype(np.uint8)
        width = len(DEFAULT_GROUP.element_bytes(1))
        assert_protocol_error(
            lambda ch: base_ot_send(
                TamperedChannel(
                    ch, width, lambda _: DEFAULT_GROUP.element_bytes(element)
                ),
                blocks.zeros(4),
                blocks.zeros(4),
            ),
            lambda ch: base_ot_receive(ch, choices),
            match="group element 0 of 1 is degenerate",
        )

    @pytest.mark.parametrize("element", [0, 1, DEFAULT_GROUP.p - 1])
    def test_degenerate_receiver_element_rejected(self, rng, element):
        n = 4
        choices = rng.integers(0, 2, n).astype(np.uint8)
        width = len(DEFAULT_GROUP.element_bytes(1))
        assert_protocol_error(
            lambda ch: base_ot_send(ch, blocks.zeros(n), blocks.zeros(n)),
            lambda ch: base_ot_receive(
                TamperedChannel(
                    ch,
                    n * width,
                    lambda d: d[:width] + DEFAULT_GROUP.element_bytes(element) + d[2 * width :],
                ),
                choices,
            ),
            match="group element 1 of 4 is degenerate",
        )


class TestHostilePkc:
    """Every frame a PKC role receives is peer-controlled: a truncated,
    extended or wrong-valued one is a ProtocolError at once -- never a
    hang (the script has no frame past the bad one) and never a reply
    sent on bad input."""

    N = 3

    def run_role(self, role, inbound):
        channel = ScriptedChannel(inbound)
        if role == "sender":
            base_ot_send(channel, blocks.zeros(self.N), blocks.zeros(self.N))
        else:
            base_ot_receive(channel, np.array([0, 1, 1], dtype=np.uint8))
        return channel

    def test_honest_scripts_are_accepted(self):
        element = (2).to_bytes(96, "big")
        self.run_role("sender", [element * self.N])
        self.run_role("receiver", [self.N.to_bytes(8, "little"), element, bytes(32 * self.N)])

    @settings(max_examples=60, deadline=None)
    @given(case=WireStrategies.pkc_inbound(N))
    def test_each_role_refuses_a_bad_frame(self, case):
        with pytest.raises(ProtocolError):
            self.run_role(*case)

    def test_a_short_element_frame_is_refused_before_the_blob(self):
        """A 1-byte ``A`` frame used to parse as ``A = 5``: the receiver
        sent its element blob and the pair failed only at a timeout."""
        channel = ScriptedChannel([self.N.to_bytes(8, "little"), b"\x05"])
        with pytest.raises(ProtocolError, match="frame of 96 8-bit lanes must be 96 bytes, got 1"):
            base_ot_receive(channel, np.zeros(self.N, dtype=np.uint8))
        assert channel.stats.messages_sent == 0
