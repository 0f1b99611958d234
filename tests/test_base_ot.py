"""P-256 group + PKC base OT tests (the OTE Init phase)."""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import P256Reference
from parties import ScriptedChannel
from strategies import WireStrategies, invalid_points

from repro.crypto import blocks
from repro.crypto.group import DEFAULT_GROUP
from repro.errors import ParameterError, ProtocolError
from repro.ot.base_ot import (
    KAPPA,
    base_cot_receive,
    base_cot_send,
    base_ot_receive,
    base_ot_send,
)
from repro.ot.channel import Channel, PartyError, run_pair
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot

ORACLE = P256Reference(DEFAULT_GROUP)
WIDTH = DEFAULT_GROUP.width
#: The generator's wire encoding: a valid element for hand-written frames.
G_BYTES = DEFAULT_GROUP.encode([DEFAULT_GROUP.generator])
scalars = st.integers(0, DEFAULT_GROUP.order)
#: What decoding each ``invalid_points`` case as element 1 of 2 says.
DECODE_ERRORS = {
    "infinity": "2 group elements must be 66 bytes, got 34",
    "infinity-padded": "element 1 of 2 has prefix 0x00",
    "prefix-00": "element 1 of 2 has prefix 0x00",
    "prefix-04": "element 1 of 2 has prefix 0x04",
    "prefix-05": "element 1 of 2 has prefix 0x05",
    "x-is-p": "element 1 of 2 has x >= p",
    "x-max": "element 1 of 2 has x >= p",
    "no-square-root": "element 1 of 2 is not on the curve",
}


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve prime bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestGroup:
    def test_curve_constants_read_from_libcrypto(self):
        """p is the P-256 prime, a = -3, and p and n are 256-bit primes
        (n, the group order, is below p: cofactor 1)."""
        g = DEFAULT_GROUP
        assert g.p == 2**256 - 2**224 + 2**192 + 2**96 - 1
        assert g.a == g.p - 3
        assert g.order.bit_length() == 256 and g.order < g.p
        assert is_probable_prime(g.p) and is_probable_prime(g.order)

    def test_generator_has_order_n(self):
        assert ORACLE.on_curve(ORACLE.g)
        assert ORACLE.mul(ORACLE.g, DEFAULT_GROUP.order) is None
        assert DEFAULT_GROUP.is_infinity(DEFAULT_GROUP.base_mul(DEFAULT_GROUP.order))
        assert not DEFAULT_GROUP.is_infinity(DEFAULT_GROUP.generator)

    def test_exp_inverse(self):
        """P + (-P) is the point at infinity."""
        point = DEFAULT_GROUP.base_mul(DEFAULT_GROUP.random_scalar())
        assert DEFAULT_GROUP.is_infinity(DEFAULT_GROUP.add(point, DEFAULT_GROUP.neg(point)))

    def test_dh_agreement(self):
        a, b = DEFAULT_GROUP.random_scalar(), DEFAULT_GROUP.random_scalar()
        left = DEFAULT_GROUP.mul(DEFAULT_GROUP.base_mul(a), b)
        right = DEFAULT_GROUP.mul(DEFAULT_GROUP.base_mul(b), a)
        assert DEFAULT_GROUP.point_bytes(left) == DEFAULT_GROUP.point_bytes(right)

    def test_element_bytes_fixed_width(self):
        assert len(G_BYTES) == WIDTH == 33
        infinity = DEFAULT_GROUP.base_mul(0)
        assert DEFAULT_GROUP.point_bytes(infinity) == b"\x00"
        with pytest.raises(ParameterError, match="point at infinity has no wire encoding"):
            DEFAULT_GROUP.encode([infinity])

    def test_encode_decode_round_trip(self):
        points = [DEFAULT_GROUP.base_mul(k) for k in (1, 7, DEFAULT_GROUP.order - 1)]
        data = DEFAULT_GROUP.encode(points)
        assert data == b"".join(map(DEFAULT_GROUP.point_bytes, points))
        assert DEFAULT_GROUP.encode(DEFAULT_GROUP.decode(data, 3)) == data

    @pytest.mark.parametrize("length", [0, 32, 34, 66, 95, 97, 192])
    def test_decode_refuses_a_wrong_length(self, length):
        with pytest.raises(ProtocolError, match=f"1 group elements must be 33 bytes, got {length}"):
            DEFAULT_GROUP.decode(bytes(length), 1)

    @pytest.mark.parametrize("case", sorted(DECODE_ERRORS))
    def test_decode_refuses_an_invalid_point(self, case):
        """Each invalid encoding, as element 1 of 2, by its own check."""
        data = invalid_points()[case]
        assert ORACLE.decompress(data) is None
        with pytest.raises(ProtocolError, match=DECODE_ERRORS[case]):
            DEFAULT_GROUP.decode(G_BYTES + data, 2)

    def test_every_invalid_point_has_its_decode_error(self):
        assert sorted(DECODE_ERRORS) == sorted(invalid_points())

    def test_hash_to_key_tweak_separation(self):
        e = DEFAULT_GROUP.base_mul(12345)
        assert DEFAULT_GROUP.hash_to_key(e, b"|0") != DEFAULT_GROUP.hash_to_key(e, b"|1")
        assert DEFAULT_GROUP.hash_to_key(e, b"|0") == hashlib.sha256(
            ORACLE.compress(ORACLE.mul(ORACLE.g, 12345)) + b"|0"
        ).digest()[:16]


class TestThreads:
    """Both parties' threads share DEFAULT_GROUP; each thread has its own
    BN_CTX and scalar BIGNUM, and ctypes drops the GIL in every call."""

    def test_shared_group_under_a_tiny_switch_interval(self):
        g = DEFAULT_GROUP
        jobs = []
        for _ in range(8):
            a, b = g.random_scalar(), g.random_scalar()
            big_a = g.base_mul(a)
            want = g.encode([g.mul(big_a, b), g.add(big_a, g.base_mul(b))])
            jobs.append((a, b, want))
        bad = [0] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def hammer(idx, a, b, want):
            barrier.wait()
            for _ in range(40):
                big_a = g.decode(g.encode([g.base_mul(a)]), 1)[0]
                got = g.encode([g.mul(big_a, b), g.add(big_a, g.base_mul(b))])
                bad[idx] += got != want

        threads = [threading.Thread(target=hammer, args=(i, *job)) for i, job in enumerate(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == [0] * len(jobs)


class TestAgainstOracle:
    """The libcrypto binding against pure-Python affine arithmetic."""

    @settings(max_examples=25, deadline=None)
    @given(k=scalars)
    def test_base_mul_matches_oracle(self, k):
        got = DEFAULT_GROUP.point_bytes(DEFAULT_GROUP.base_mul(k))
        assert got == ORACLE.compress(ORACLE.mul(ORACLE.g, k))

    @settings(max_examples=15, deadline=None)
    @given(j=scalars, k=scalars)
    def test_mul_matches_oracle(self, j, k):
        point = DEFAULT_GROUP.base_mul(j)
        got = DEFAULT_GROUP.point_bytes(DEFAULT_GROUP.mul(point, k))
        assert got == ORACLE.compress(ORACLE.mul(ORACLE.mul(ORACLE.g, j), k))

    @settings(max_examples=25, deadline=None)
    @given(j=scalars, k=st.one_of(scalars, st.just(None)))
    def test_add_and_neg_match_oracle(self, j, k):
        """P + Q and -P, including P + P (doubling) and P + (-P)."""
        u = ORACLE.mul(ORACLE.g, j)
        v = u if k is None else ORACLE.mul(ORACLE.g, k)
        g = DEFAULT_GROUP
        p = g.base_mul(j)
        q = p if k is None else g.base_mul(k)
        assert g.point_bytes(g.add(p, q)) == ORACLE.compress(ORACLE.add(u, v))
        assert g.point_bytes(g.neg(p)) == ORACLE.compress(ORACLE.neg(u))
        assert g.is_infinity(g.add(p, g.neg(p))) and ORACLE.add(u, ORACLE.neg(u)) is None

    @settings(max_examples=25, deadline=None)
    @given(a=scalars.filter(bool), b=scalars.filter(bool))
    def test_dh_commutes(self, a, b):
        ga, gb = DEFAULT_GROUP.base_mul(a), DEFAULT_GROUP.base_mul(b)
        left = DEFAULT_GROUP.point_bytes(DEFAULT_GROUP.mul(gb, a))
        assert left == DEFAULT_GROUP.point_bytes(DEFAULT_GROUP.mul(ga, b))

    @settings(max_examples=25, deadline=None)
    @given(ks=st.lists(st.integers(1, DEFAULT_GROUP.order - 1), min_size=1, max_size=4))
    def test_encode_decode_round_trip(self, ks):
        data = DEFAULT_GROUP.encode([DEFAULT_GROUP.base_mul(k) for k in ks])
        assert data == b"".join(ORACLE.compress(ORACLE.mul(ORACLE.g, k)) for k in ks)
        assert DEFAULT_GROUP.encode(DEFAULT_GROUP.decode(data, len(ks))) == data

    @settings(max_examples=60, deadline=None)
    @given(prefix=st.sampled_from([2, 3]), x=st.integers(0, 2**256 - 1))
    def test_decode_accepts_exactly_the_oracles_points(self, prefix, x):
        """About half of all x are on the curve; x >= p never is."""
        data = bytes([prefix]) + x.to_bytes(32, "big")
        point = ORACLE.decompress(data)
        if point is None:
            with pytest.raises(ProtocolError, match="group element 0 of 1"):
                DEFAULT_GROUP.decode(data, 1)
        else:
            assert DEFAULT_GROUP.encode(DEFAULT_GROUP.decode(data, 1)) == data


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


def _oracle_pad(point, choice, index, message):
    """message XOR SHA-256(SEC1(point) || "|choice|index")[:16], bytewise."""
    digest = hashlib.sha256(
        DEFAULT_GROUP.point_bytes(point) + b"|%d|%d" % (choice, index)
    ).digest()
    return bytes(m ^ d for m, d in zip(blocks.to_bytes(message), digest))


def sequential_ot_send(channel, messages0, messages1):
    """The per-OT reference schedule (one element message per OT, one
    pad at a time) the shipped batched code is checked against.  It
    lives here, not in ``src/``: one path ships."""
    g = DEFAULT_GROUP
    n = messages0.shape[0]
    a = g.random_scalar()
    big_a = g.base_mul(a)
    channel.send_lanes([n], 64)
    channel.send_bytes(g.point_bytes(big_a))
    payload = b""
    for i in range(n):
        (big_b,) = g.decode(channel.recv_bytes(), 1)
        dh0 = g.mul(big_b, a)
        dh1 = g.add(dh0, g.neg(g.mul(big_a, a)))
        payload += _oracle_pad(dh0, 0, i, messages0[i : i + 1])
        payload += _oracle_pad(dh1, 1, i, messages1[i : i + 1])
    channel.send_bytes(payload)


def sequential_ot_receive(channel, choices):
    g = DEFAULT_GROUP
    n = int(channel.recv_lanes(1, 64)[0])
    assert n == len(choices)
    choices = [int(c) for c in choices]
    (big_a,) = g.decode(channel.recv_bytes(), 1)
    scalars = []
    for c in choices:
        b = g.random_scalar()
        big_b = g.add(g.base_mul(b), big_a) if c else g.base_mul(b)
        channel.send_bytes(g.point_bytes(big_b))
        scalars.append(b)
    payload = channel.recv_bytes()
    out = b""
    for i, (b, c) in enumerate(zip(scalars, choices)):
        cipher = payload[32 * i + 16 * c : 32 * i + 16 * c + 16]
        out += _oracle_pad(g.mul(big_a, b), c, i, blocks.from_bytes(cipher))
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
            match="frame of 132 8-bit lanes must be 132 bytes, got 33",
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

    @pytest.mark.parametrize("case", sorted(invalid_points()))
    def test_invalid_sender_point_rejected(self, rng, case):
        element = invalid_points()[case]
        choices = rng.integers(0, 2, 4).astype(np.uint8)
        assert_protocol_error(
            lambda ch: base_ot_send(
                TamperedChannel(ch, WIDTH, lambda _: element),
                blocks.zeros(4),
                blocks.zeros(4),
            ),
            lambda ch: base_ot_receive(ch, choices),
            match="group element 0 of 1|frame of 33 8-bit lanes",
        )

    @pytest.mark.parametrize("case", sorted(invalid_points()))
    def test_invalid_receiver_point_rejected(self, rng, case):
        element = invalid_points()[case]
        n = 4
        choices = rng.integers(0, 2, n).astype(np.uint8)
        assert_protocol_error(
            lambda ch: base_ot_send(ch, blocks.zeros(n), blocks.zeros(n)),
            lambda ch: base_ot_receive(
                TamperedChannel(
                    ch, n * WIDTH, lambda d: d[:WIDTH] + element + d[2 * WIDTH :]
                ),
                choices,
            ),
            match="group element 1 of 4|frame of 132 8-bit lanes",
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

    def honest(self, role):
        if role == "sender":
            return [G_BYTES * self.N]
        return [self.N.to_bytes(8, "little"), G_BYTES, bytes(32 * self.N)]

    def test_honest_scripts_are_accepted(self):
        self.run_role("sender", self.honest("sender"))
        self.run_role("receiver", self.honest("receiver"))

    @settings(max_examples=60, deadline=None)
    @given(case=WireStrategies.pkc_inbound(N))
    def test_each_role_refuses_a_bad_frame(self, case):
        with pytest.raises(ProtocolError):
            self.run_role(*case)

    def test_a_short_element_frame_is_refused_before_the_blob(self):
        """A 1-byte ``A`` frame used to parse as ``A = 5``: the receiver
        sent its element blob and the pair failed only at a timeout."""
        channel = ScriptedChannel([self.N.to_bytes(8, "little"), b"\x05"])
        with pytest.raises(ProtocolError, match="frame of 33 8-bit lanes must be 33 bytes, got 1"):
            base_ot_receive(channel, np.zeros(self.N, dtype=np.uint8))
        assert channel.stats.messages_sent == 0

    @pytest.mark.parametrize("case", sorted(invalid_points()))
    def test_each_invalid_point_is_refused_before_the_next_send(self, case):
        """Every invalid encoding, in every element slot of either role,
        is a ProtocolError before the role sends again: the receiver
        has sent nothing when ``A`` is bad, the sender only its ``n``
        header and ``A`` when an element of the blob is."""
        bad = invalid_points()[case]
        for role, at, slots in (("sender", 0, self.N), ("receiver", 1, 1)):
            for i in range(slots):
                frames = self.honest(role)
                good = frames[at]
                frames[at] = good[: i * WIDTH] + bad + good[(i + 1) * WIDTH :]
                channel = ScriptedChannel(frames)
                with pytest.raises(ProtocolError):
                    if role == "sender":
                        base_ot_send(channel, blocks.zeros(self.N), blocks.zeros(self.N))
                    else:
                        base_ot_receive(channel, np.array([0, 1, 1], dtype=np.uint8))
                assert channel.stats.messages_sent == (2 if role == "sender" else 0)
