"""Reconnect/resume: journaled replay, epochs, and redial over sockets."""

import threading
import time

import pytest

from repro.errors import ChannelClosed, ChannelError, ChannelTimeout
from repro.ot.channel import LocalChannel, SocketChannel
from repro.ot.faults import DISCONNECT, FaultEvent, FaultSchedule, FaultyChannel
from repro.ot.reconnect import ReconnectingChannel
from repro.ot.retry import RetryPolicy
from repro.runtime import MuxChannel

FAST = RetryPolicy(attempts=6, backoff_s=0.01, max_backoff_s=0.05, deadline_s=5.0)


class Breakable:
    """An in-memory transport whose close() is visible to BOTH peers.

    LocalChannel endpoints cannot observe a peer's death, so this
    wrapper shares a "wire cut" event per pair: once either side closes
    (including a FaultyChannel injecting a disconnect, or the
    reconnecting layer marking a transport dead), every later operation
    on either endpoint raises ChannelClosed -- the same half-close
    semantics a real socket gives.
    """

    def __init__(self, base, broken: threading.Event):
        self.base = base
        self.stats = base.stats
        self._broken = broken

    def send_bytes(self, data):
        if self._broken.is_set():
            raise ChannelClosed("wire cut")
        self.base.send_bytes(data)

    def recv_bytes(self, timeout=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._broken.is_set():
                raise ChannelClosed("wire cut")
            step = 0.05
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise ChannelTimeout("recv timed out")
                step = min(step, left)
            try:
                return self.base.recv_bytes(timeout=step)
            except ChannelTimeout:
                continue

    def close(self):
        self._broken.set()


class PairDialer:
    """In-process rendezvous: whichever side dials first creates a fresh
    Breakable pair; the other side's dial picks up its half.  One dialer
    serves every epoch, so two ReconnectingChannels can redial in
    lockstep without real sockets."""

    def __init__(self, timeout=2.0):
        self._timeout = timeout
        self._cond = threading.Condition()
        self._avail = {"a": None, "b": None}
        self.breaks = []  # one cut-event per epoch's pair

    def dial(self, side):
        with self._cond:
            if self._avail[side] is None:
                ca, cb = LocalChannel.pair(timeout=self._timeout)
                broken = threading.Event()
                self.breaks.append(broken)
                self._avail["a"] = Breakable(ca, broken)
                self._avail["b"] = Breakable(cb, broken)
            chan = self._avail[side]
            self._avail[side] = None
            return chan

    def cut(self):
        """Sever the most recently dialed wire."""
        self.breaks[-1].set()


def build_pair(dial_a, dial_b, policy=FAST, **kwargs):
    """Run the two handshaking constructors in parallel threads."""
    out, errs = {}, {}

    def build(name, dial):
        try:
            out[name] = ReconnectingChannel(dial, policy=policy, **kwargs)
        except Exception as exc:  # noqa: BLE001 - surfaced via assert
            errs[name] = exc

    threads = [
        threading.Thread(target=build, args=("a", dial_a)),
        threading.Thread(target=build, args=("b", dial_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
    assert not errs, f"handshake failed: {errs}"
    return out["a"], out["b"]


def reconnecting_pair(policy=FAST, **kwargs):
    dialer = PairDialer()
    a, b = build_pair(
        lambda: dialer.dial("a"), lambda: dialer.dial("b"), policy, **kwargs
    )
    return a, b, dialer


def pump(chan, n, results):
    for _ in range(n):
        results.append(chan.recv_bytes(timeout=10.0))


def healer(chan, stop):
    """Drive a sender's reconnect path: recv in short slices so the
    endpoint notices a dead transport (reconnects are recv-driven)."""
    while not stop.is_set():
        try:
            chan.recv_bytes(timeout=0.1)
        except ChannelTimeout:
            continue
        except ChannelError:
            return


def test_plain_traffic_round_trips_with_epoch_one():
    a, b, _ = reconnecting_pair()
    a.send_bytes(b"hello")
    got = []
    t = threading.Thread(target=pump, args=(b, 1, got))
    t.start()
    t.join(5.0)
    assert got == [b"hello"]
    assert a.epoch == 1 and b.epoch == 1
    assert a.reconnects == 0 and b.reconnects == 0


def test_mid_stream_cut_replays_journaled_frames():
    a, b, dialer = reconnecting_pair()
    stop = threading.Event()
    heal_a = threading.Thread(target=healer, args=(a, stop))
    heal_a.start()
    got = []
    receiver = threading.Thread(target=pump, args=(b, 30, got))
    receiver.start()
    try:
        for i in range(10):
            a.send_bytes(f"pre-{i}".encode())
        dialer.cut()
        for i in range(20):
            a.send_bytes(f"post-{i}".encode())  # journaled; never raises
        receiver.join(15.0)
        assert not receiver.is_alive(), f"receiver hung; got {len(got)} frames"
    finally:
        stop.set()
        heal_a.join(5.0)
    expect = [f"pre-{i}".encode() for i in range(10)]
    expect += [f"post-{i}".encode() for i in range(20)]
    assert got == expect  # in order, no loss, no duplicates delivered
    assert a.epoch >= 2 and b.epoch >= 2
    assert b.reconnects >= 1
    assert a.replayed_frames >= 20  # everything unacked went out again
    assert a.replayed_bytes > 0
    event = (a.reconnect_events + b.reconnect_events)[0]
    assert event["outage_s"] >= 0.0 and event["epoch"] >= 2


def test_injected_disconnect_heals_transparently():
    """A FaultyChannel disconnect at the transport layer is invisible
    above the reconnecting channel: every frame arrives exactly once."""
    dialer = PairDialer()
    sched = FaultSchedule([FaultEvent("send", 7, DISCONNECT)])
    a, b = build_pair(
        lambda: FaultyChannel(dialer.dial("a"), sched),
        lambda: dialer.dial("b"),
    )
    stop = threading.Event()
    heal_a = threading.Thread(target=healer, args=(a, stop))
    heal_a.start()
    got = []
    receiver = threading.Thread(target=pump, args=(b, 25, got))
    receiver.start()
    try:
        for i in range(25):
            a.send_bytes(f"msg-{i}".encode())
        receiver.join(15.0)
        assert not receiver.is_alive(), f"receiver hung; got {len(got)} frames"
    finally:
        stop.set()
        heal_a.join(5.0)
    assert got == [f"msg-{i}".encode() for i in range(25)]
    assert sched.remaining() == 0  # the fault really fired
    assert a.reconnects >= 1


def test_fault_during_replay_retries_until_healed():
    """A fault striking the FRESH transport mid-replay must re-enter the
    retry loop (the schedule's op counters keep climbing across redials,
    so chaos schedules genuinely hit this), not surface mid-recovery."""
    dialer = PairDialer()
    sched = FaultSchedule(
        [
            FaultEvent("send", 7, DISCONNECT),  # mid original stream
            FaultEvent("send", 10, DISCONNECT),  # lands inside the replay
        ]
    )
    a, b = build_pair(
        lambda: FaultyChannel(dialer.dial("a"), sched),
        lambda: dialer.dial("b"),
    )
    stop = threading.Event()
    heal_a = threading.Thread(target=healer, args=(a, stop))
    heal_a.start()
    got = []
    receiver = threading.Thread(target=pump, args=(b, 10, got))
    receiver.start()
    try:
        for i in range(10):
            a.send_bytes(f"m{i}".encode())
        receiver.join(15.0)
        assert not receiver.is_alive(), f"receiver hung; got {len(got)} frames"
    finally:
        stop.set()
        heal_a.join(5.0)
    assert got == [f"m{i}".encode() for i in range(10)]
    assert sched.remaining() == 0  # both faults really fired
    assert a.reconnects >= 1
    # The first replay attempt died partway; the successful retry
    # replayed the journal suffix again (duplicates are dropped by seq).
    assert a.replayed_frames >= 4


def test_acks_trim_the_send_journal():
    a, b, _ = reconnecting_pair(ack_every=4)
    got = []
    receiver = threading.Thread(target=pump, args=(b, 12, got))
    receiver.start()
    for i in range(12):
        a.send_bytes(bytes([i]))
    receiver.join(5.0)
    assert got == [bytes([i]) for i in range(12)]
    # ACKs ride the reverse direction; a's next receive drains them.
    with pytest.raises(ChannelTimeout):
        a.recv_bytes(timeout=0.3)
    assert len(a._journal) == 0  # 12 frames, acked every 4


def test_journal_overflow_raises_closed():
    a, _, _ = reconnecting_pair(journal_limit=5)
    a._transport_ok = False  # link down; sends buffer instead of raising
    for i in range(5):
        a.send_bytes(bytes([i]))
    with pytest.raises(ChannelClosed, match="journal full"):
        a.send_bytes(b"overflow")


def test_reconnect_budget_exhaustion_raises_closed():
    calls = []

    def dead_dial():
        calls.append(1)
        raise ConnectionRefusedError("nobody home")

    with pytest.raises(ChannelClosed, match="reconnect failed"):
        ReconnectingChannel(
            dead_dial,
            policy=RetryPolicy(attempts=3, backoff_s=0.01, deadline_s=1.0),
        )
    assert len(calls) == 3


def test_state_provider_reaches_the_peer():
    state = {"pools": {"cot/fwd": 41}, "party": 0}
    a, b, _ = reconnecting_pair(state_provider=lambda: state)
    # The initial handshake already exchanged state both ways.
    assert b.peer_state == state
    assert a.peer_state == state


def test_sequence_gap_is_a_hard_error():
    a, b, _ = reconnecting_pair()
    a._tx_seq = 5  # pretend 5 frames were sent and trimmed away
    a.send_bytes(b"from the future")
    errs = []

    def recv_one():
        try:
            b.recv_bytes(timeout=2.0)
        except ChannelError as exc:
            errs.append(exc)

    t = threading.Thread(target=recv_one)
    t.start()
    t.join(5.0)
    assert len(errs) == 1
    assert "sequence gap" in str(errs[0])


def test_mux_counts_exclude_replayed_duplicates():
    """An epoch bump replays journaled frames, some of which the peer
    already routed; the reconnect layer's seq dedup drops those BEFORE
    they reach the mux, so ``stats_by_tag()`` / ``receive_counts()``
    count each logical frame exactly once.  These counts feed the resume
    handshake and the telemetry snapshot -- double-counting would skew
    both."""
    # Huge ack interval: nothing gets trimmed, so the redial replays the
    # already-delivered frames too (the interesting case).
    a, b, dialer = reconnecting_pair(ack_every=1000)
    mux_a, mux_b = MuxChannel(a, timeout=10.0), MuxChannel(b, timeout=10.0)
    try:
        sa, sb = mux_a.sub("data"), mux_b.sub("data")
        for i in range(10):
            sa.send_bytes(f"pre-{i}".encode())
        got = [sb.recv_bytes(timeout=10.0) for _ in range(10)]
        dialer.cut()  # both mux pumps notice and drive the redial
        for i in range(20):
            sa.send_bytes(f"post-{i}".encode())
        got += [sb.recv_bytes(timeout=10.0) for _ in range(20)]

        expect = [f"pre-{i}".encode() for i in range(10)]
        expect += [f"post-{i}".encode() for i in range(20)]
        assert got == expect
        assert b.epoch >= 2 and b.reconnects >= 1
        # Every frame journaled across the outage was replayed.
        assert a.replayed_frames >= 20

        # The handshake replays from the peer's reported position, so a
        # clean cut delivers no duplicates; force the defended case (a
        # stale replay point) by resending frame 0's wire encoding on
        # the live transport, bypassing a's journal.
        from repro.ot.reconnect import _DATA, _SEQ
        from repro.runtime.mux import encode_frame

        a._transport.send_bytes(_DATA + _SEQ.pack(0) + encode_frame(b"data", expect[0]))
        sa.send_bytes(b"sentinel")
        assert sb.recv_bytes(timeout=10.0) == b"sentinel"

        # In-order delivery: the duplicate was pumped before the
        # sentinel, dropped by seq BEFORE any stats or mux routing --
        # each logical frame counted exactly once.
        assert mux_b.receive_counts()["data"] == 31
        stats = mux_b.stats_by_tag()["data"]
        # Per-tag bytes count the mux frame encoding (tag header
        # included), once per logical frame -- the duplicate adds none.
        assert stats.bytes_received == sum(
            len(encode_frame(b"data", f)) for f in expect + [b"sentinel"]
        )
        assert mux_a.stats_by_tag()["data"].messages_sent == 31
    finally:
        mux_a.close(), mux_b.close()


def test_socket_redial_with_kept_open_listener():
    """The real deployment shape: the client redials connect(), the
    server re-accepts on a listener kept open across epochs.

    The client's healer starts only after the last send: a healer
    already running could notice the dead wire mid-loop and redial, so
    the remaining frames would go straight out on the new transport
    instead of through replay."""
    listener = SocketChannel.listen()
    port = listener.port
    server, client = build_pair(
        lambda: listener.accept(accept_timeout=5.0, keep_open=True),
        lambda: SocketChannel.connect("127.0.0.1", port, timeout=2.0),
    )
    stop = threading.Event()
    heal_c = threading.Thread(target=healer, args=(client, stop))
    got = []
    receiver = threading.Thread(target=pump, args=(server, 20, got))
    receiver.start()
    try:
        for i in range(8):
            client.send_bytes(f"a{i}".encode())
        client._transport.close()  # yank the wire mid-stream
        for i in range(12):
            client.send_bytes(f"b{i}".encode())
        heal_c.start()
        receiver.join(20.0)
        assert not receiver.is_alive(), f"receiver hung; got {len(got)} frames"
    finally:
        stop.set()
        if heal_c.is_alive():
            heal_c.join(5.0)
        listener.close()
        client.close()
        server.close()
    expect = [f"a{i}".encode() for i in range(8)]
    expect += [f"b{i}".encode() for i in range(12)]
    assert got == expect
    assert server.epoch >= 2 and client.epoch >= 2
    assert client.replayed_frames >= 12
