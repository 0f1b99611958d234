"""MuxChannel tests: framing, concurrency, and stats attribution.

The satellite requirement: ChannelStats (and therefore
ExtendStats.rounds) must stay correct *per sub-channel* under the mux,
with provisioning bytes separable from consumer bytes.
"""

import threading

import numpy as np
import pytest

from repro.crypto import blocks
from repro.errors import ChannelError, ChannelTimeout
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import LocalChannel, SocketChannel
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot
from repro.runtime.mux import MuxChannel


def mux_pair(timeout=30.0):
    a, b = LocalChannel.pair(timeout=timeout)
    return MuxChannel(a, timeout=timeout), MuxChannel(b, timeout=timeout)


class TestFraming:
    def test_roundtrip_single_tag(self):
        m0, m1 = mux_pair()
        m0.sub("x").send_bytes(b"hello")
        assert m1.sub("x").recv_bytes() == b"hello"
        m0.close(), m1.close()

    def test_tags_do_not_cross(self):
        m0, m1 = mux_pair()
        m0.sub("a").send_bytes(b"for-a")
        m0.sub("b").send_bytes(b"for-b")
        # Receive in the opposite order: the pump routes per tag.
        assert m1.sub("b").recv_bytes() == b"for-b"
        assert m1.sub("a").recv_bytes() == b"for-a"
        m0.close(), m1.close()

    def test_typed_helpers_work_on_subchannel(self, rng):
        m0, m1 = mux_pair()
        data = blocks.random_blocks(7, rng)
        m0.sub("t").send_blocks(data)
        m0.sub("t").send_lanes([99], 64)
        bits = rng.integers(0, 2, 19).astype(np.uint8)
        m0.sub("t").send_lanes(bits, 1)
        assert np.array_equal(m1.sub("t").recv_blocks(7), data)
        assert m1.sub("t").recv_lanes(1, 64)[0] == 99
        assert np.array_equal(m1.sub("t").recv_lanes(19, 1), bits)
        m0.close(), m1.close()

    def test_recv_timeout_on_empty_subchannel(self):
        m0, m1 = mux_pair()
        with pytest.raises(ChannelTimeout):
            m1.sub("idle").recv_bytes(timeout=0.1)
        m0.close(), m1.close()

    def test_unknown_incoming_tag_creates_subchannel(self):
        m0, m1 = mux_pair()
        m0.sub("fresh").send_bytes(b"hi")
        # m1 never called sub("fresh") before the frame arrived.
        assert m1.sub("fresh").recv_bytes() == b"hi"
        assert "fresh" in m1.tags
        m0.close(), m1.close()

    def test_works_over_socketpair(self):
        sa, sb = SocketChannel.pair(timeout=10.0)
        m0, m1 = MuxChannel(sa, timeout=10.0), MuxChannel(sb, timeout=10.0)
        m0.sub("s").send_bytes(b"over-a-socket")
        assert m1.sub("s").recv_bytes() == b"over-a-socket"
        m0.close(), m1.close()
        sa.close(), sb.close()


class TestConcurrency:
    def test_parallel_subchannel_traffic(self):
        """Two protocol pairs run simultaneously over one link."""
        m0, m1 = mux_pair()
        n_msgs = 50
        errors = []

        def echo_client(sub_a, tag):
            try:
                for i in range(n_msgs):
                    sub_a.send_bytes(f"{tag}:{i}".encode())
                    assert sub_a.recv_bytes() == f"{tag}:{i}:ack".encode()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def echo_server(sub_b):
            try:
                for _ in range(n_msgs):
                    msg = sub_b.recv_bytes()
                    sub_b.send_bytes(msg + b":ack")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = []
        for tag in ("alpha", "beta", "gamma"):
            threads.append(
                threading.Thread(target=echo_client, args=(m0.sub(tag), tag))
            )
            threads.append(threading.Thread(target=echo_server, args=(m1.sub(tag),)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        m0.close(), m1.close()

    def test_base_cot_protocol_over_subchannel(self, rng):
        """An existing interactive protocol runs unchanged on a sub-channel
        while unrelated chatter occupies a sibling tag."""
        m0, m1 = mux_pair()
        n = 8
        delta = blocks.random_blocks(1, rng)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        out = {}

        def sender():
            out["r"] = base_cot_send(m0.sub("ot"), n, delta)

        def receiver():
            out["y"] = base_cot_receive(m1.sub("ot"), choices, rng)

        def chatter():
            for i in range(20):
                m0.sub("noise").send_bytes(b"x" * 100)
                m1.sub("noise").recv_bytes()

        ts = [threading.Thread(target=f) for f in (sender, receiver, chatter)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(30.0)
        assert verify_cot(
            CotSenderBatch(delta, out["r"]), CotReceiverBatch(choices, out["y"])
        )
        m0.close(), m1.close()


class TestStatsAttribution:
    def test_subchannel_bytes_partition_link_total(self):
        m0, m1 = mux_pair()
        m0.sub("a").send_bytes(b"x" * 100)
        m0.sub("bb").send_bytes(b"y" * 50)
        m0.sub("a").send_bytes(b"z" * 10)
        per_tag = sum(s.bytes_sent for s in m0.stats_by_tag().values())
        assert per_tag == m0.base.stats.bytes_sent
        # Framed attribution: payload + 2-byte header + tag bytes.
        assert m0.sub("a").stats.bytes_sent == (100 + 3) + (10 + 3)
        assert m0.sub("bb").stats.bytes_sent == 50 + 4
        # Receiver side mirrors once everything is drained.
        m1.sub("a").recv_bytes(), m1.sub("bb").recv_bytes(), m1.sub("a").recv_bytes()
        per_tag_recv = sum(s.bytes_received for s in m1.stats_by_tag().values())
        assert per_tag_recv == m1.base.stats.bytes_received
        m0.close(), m1.close()

    def test_rounds_counted_per_subchannel(self):
        """Interleaved traffic on another tag must not perturb a
        sub-channel's own round count."""
        m0, m1 = mux_pair()
        a0, a1 = m0.sub("proto"), m1.sub("proto")
        n0, n1 = m0.sub("noise"), m1.sub("noise")
        # proto: a0 sends, a1 replies, a0 sends again = 2 rounds at a0.
        a0.send_bytes(b"1")
        n1.send_bytes(b"interleaved")  # opposite-direction noise
        m0.sub("noise").recv_bytes()
        a1.recv_bytes()
        a1.send_bytes(b"2")
        a0.recv_bytes()
        n0.send_bytes(b"more-noise")
        n1.recv_bytes()
        a0.send_bytes(b"3")
        a1.recv_bytes()
        assert a0.stats.rounds == 2
        assert a1.stats.rounds == 1
        m0.close(), m1.close()

    def test_extend_stats_rounds_match_unmuxed_run(self):
        """ExtendStats measured over a mux sub-channel equals the same
        protocol run over a bare channel -- with concurrent consumer
        traffic on sibling tags (the satellite acceptance)."""
        cfg = FerretConfig.small(scale=2048, arity=4, prg_kind="chacha8")

        def run(channel_pair_factory):
            chan_s, chan_r = channel_pair_factory()
            sender, receiver = FerretSender(cfg, seed=5), FerretReceiver(cfg, seed=6)
            out = {}

            def s_side():
                sender.setup(chan_s)
                out["s"] = sender.extend(chan_s)

            def r_side():
                receiver.setup(chan_r)
                out["r"] = receiver.extend(chan_r)

            ts = [threading.Thread(target=f) for f in (s_side, r_side)]
            for t in ts:
                t.start()
            for t in ts:
                t.join(120.0)
            assert verify_cot(out["s"], out["r"])
            return sender.last_stats, receiver.last_stats

        plain_s, plain_r = run(lambda: LocalChannel.pair(timeout=60.0))

        m0, m1 = mux_pair(timeout=60.0)
        stop = threading.Event()

        def chatter():
            i = 0
            while not stop.is_set():
                m0.sub("consumer").send_bytes(b"c" * 64)
                m1.sub("consumer").recv_bytes()
                i += 1

        noise = threading.Thread(target=chatter)
        noise.start()
        try:
            muxed_s, muxed_r = run(lambda: (m0.sub("prov"), m1.sub("prov")))
        finally:
            stop.set()
            noise.join(10.0)
        assert muxed_s.rounds == plain_s.rounds
        assert muxed_r.rounds == plain_r.rounds
        assert muxed_s.prg_calls == plain_s.prg_calls
        # Byte attribution differs only by the framing overhead.
        assert muxed_s.bytes_sent >= plain_s.bytes_sent
        m0.close(), m1.close()

    def test_send_after_close_raises(self):
        m0, m1 = mux_pair()
        m0.close()
        with pytest.raises(ChannelError):
            m0.sub("x").send_bytes(b"nope")
        m1.close()

    def test_peer_close_fails_fast_not_full_timeout(self):
        """When the peer closes the link, receivers -- including on
        sub-channels created after the pump died -- must fail promptly
        with ChannelClosed instead of sitting out the mux timeout."""
        import time

        from repro.errors import ChannelClosed

        sa, sb = SocketChannel.pair(timeout=30.0)
        m1 = MuxChannel(sb, timeout=30.0)
        sa.close()  # peer goes away
        deadline = time.monotonic() + 10.0
        while m1._pump.is_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        start = time.monotonic()
        with pytest.raises(ChannelClosed):
            m1.sub("late-tag").recv_bytes()  # tag created after pump death
        assert time.monotonic() - start < 5.0  # not the 30 s mux timeout
        m1.close()
        sb.close()


class TestShutdownHardening:
    def test_close_wakes_blocked_receiver_promptly(self):
        """close() poisons inboxes BEFORE joining the pump, so a thread
        parked in recv_bytes sees ChannelClosed immediately -- not after
        the pump's next poll tick or its own full timeout."""
        import time

        from repro.errors import ChannelClosed

        m0, m1 = mux_pair(timeout=60.0)
        outcome = {}

        def blocked():
            start = time.monotonic()
            try:
                m1.sub("never").recv_bytes(timeout=30.0)
            except ChannelClosed:
                outcome["latency"] = time.monotonic() - start

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.2)  # let the receiver park in the inbox wait
        m1.close()
        t.join(5.0)
        assert not t.is_alive(), "receiver did not wake on close()"
        assert outcome["latency"] < 3.0
        m0.close()

    def test_close_wakes_every_blocked_receiver(self):
        """The poison sentinel is re-seeded on consumption, so N threads
        blocked on the same sub-channel all wake, not just the first."""
        from repro.errors import ChannelClosed

        m0, m1 = mux_pair(timeout=60.0)
        woken = []
        sub = m1.sub("crowded")

        def blocked(i):
            try:
                sub.recv_bytes(timeout=30.0)
            except ChannelClosed:
                woken.append(i)

        threads = [threading.Thread(target=blocked, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        import time

        time.sleep(0.2)
        m1.close()
        for t in threads:
            t.join(5.0)
        assert sorted(woken) == [0, 1, 2, 3]
        m0.close()

    def test_drain_discards_but_keeps_attribution(self):
        m0, m1 = mux_pair()
        for i in range(5):
            m0.sub("d").send_bytes(bytes([i]) * 10)
        sub = m1.sub("d")
        # Wait until the pump routed everything, then drain.
        import time

        deadline = time.monotonic() + 5.0
        while sub.rx_frames < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        drained = sub.drain()
        assert drained == [bytes([i]) * 10 for i in range(5)]
        assert sub.drain() == []  # idempotent on empty
        # Drained frames crossed the wire: attribution must include them.
        assert sub.stats.bytes_received == m0.sub("d").stats.bytes_sent
        m0.close(), m1.close()

    def test_receive_counts_track_routed_frames(self):
        m0, m1 = mux_pair()
        m0.sub("x").send_bytes(b"1")
        m0.sub("x").send_bytes(b"2")
        m0.sub("y").send_bytes(b"3")
        assert m1.sub("x").recv_bytes(timeout=5.0) == b"1"
        assert m1.sub("x").recv_bytes(timeout=5.0) == b"2"
        assert m1.sub("y").recv_bytes(timeout=5.0) == b"3"
        counts = m1.receive_counts()
        assert counts["x"] == 2 and counts["y"] == 1
        m0.close(), m1.close()
