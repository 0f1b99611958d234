"""Transparent reconnect/resume over an unreliable transport.

:class:`ReconnectingChannel` sits between a fragile byte transport
(typically :class:`repro.ot.channel.SocketChannel`, possibly wrapped in
a :class:`repro.ot.faults.FaultyChannel`) and everything above it (the
mux, the correlation service).  It turns transport faults within the
retry budget into invisible hiccups:

* Every application frame is journaled with a monotonically increasing
  sequence number before it touches the wire (``D`` frames).  The
  journal is bounded; the peer acknowledges progress (``A`` frames)
  every ``ack_every`` data frames so acked prefixes are trimmed.
* **Sends never raise transient errors.**  If the transport is down,
  the frame stays journaled and goes out during replay after the next
  successful handshake.  Only journal overflow raises -- at that point
  the outage has outlived the buffering budget and the caller must see
  it.
* A failed receive triggers the reconnect loop: redial under the
  :class:`repro.ot.retry.RetryPolicy` (capped exponential backoff with
  seeded jitter), then a resume handshake (``H`` frames: the
  discriminator, then one :data:`HANDSHAKE` message) exchanging the
  session epoch, each side's next-expected receive sequence, and an
  opaque application state dict (the mux contributes per-tag receive
  counts, the service per-pool absolute stream positions -- the
  deterministic-resume state the pool accounting already maintains).
  Each side then replays journaled frames the peer never received.
  Receive-side sequence numbers make replay idempotent: duplicates are
  dropped, gaps are a hard :class:`ChannelError` (they mean the peer's
  journal was trimmed past our position -- resume is impossible).
* Epochs count successful handshakes.  Epoch 1 is the initial dial;
  every recovery increments it, and ``reconnect_events`` records one
  ``(epoch, outage_s, replayed_frames)`` entry per recovery for the
  chaos benchmark's recovery-latency numbers.

The layer is symmetric except for dialing: exactly one side must own
``dial`` (client redials; a server passes a factory that re-accepts on
a kept-open listener).
"""

from __future__ import annotations

import struct
import threading
import time
from collections import OrderedDict

from repro.errors import ChannelClosed, ChannelError, ChannelTimeout
from repro.fingerprint import PROTOCOL, check_peer_protocol
from repro.obs.trace import NULL_TRACER
from repro.ot.channel import Channel, decode_msg, encode_msg
from repro.ot.retry import RetryPolicy

_SEQ = struct.Struct("<Q")

#: Frame discriminators on the wire.
_DATA = b"D"
_ACK = b"A"
_HELLO = b"H"

#: The resume handshake after the ``H`` discriminator.  DATA and ACK
#: headers ride every frame, so they are binary.  ``protocol`` is the
#: sender's :data:`repro.fingerprint.PROTOCOL`; a peer on another version
#: is refused before any frame is replayed.
HANDSHAKE = {"hello": {"epoch": int, "rx": int, "state": dict, "protocol": str}}


class ReconnectingChannel(Channel):
    """A channel that survives transport loss via journal + replay.

    Parameters
    ----------
    dial:
        Zero-argument callable returning a fresh connected transport
        :class:`Channel`.  Called for the initial connection and for
        every redial.
    policy:
        :class:`RetryPolicy` bounding each recovery (attempts, capped
        exponential backoff, total deadline).
    journal_limit:
        Maximum unacked data frames buffered.  Sending past it raises
        :class:`ChannelClosed` -- the outage outlived the budget.
    ack_every:
        Acknowledge after this many received data frames, trimming the
        peer's journal.
    state_provider:
        Optional zero-argument callable returning a JSON-serializable
        dict shipped in the resume handshake (mux receive counts, pool
        stream positions).  The peer's latest dict is kept in
        ``peer_state`` for diagnostics and consistency checks.
    """

    def __init__(
        self,
        dial,
        policy: RetryPolicy = None,
        journal_limit: int = 4096,
        ack_every: int = 32,
        state_provider=None,
    ):
        super().__init__()
        self._dial = dial
        self.policy = policy if policy is not None else RetryPolicy()
        self.journal_limit = int(journal_limit)
        self.ack_every = int(ack_every)
        self.state_provider = state_provider

        self._transport: Channel = None
        self._transport_ok = False
        self._closed = False

        # Send side: next seq to assign, journal of unacked frames.
        self._tx_seq = 0
        self._journal: "OrderedDict[int, bytes]" = OrderedDict()
        self._send_lock = threading.RLock()

        # Recv side: next seq expected, frames received since last ack.
        self._rx_seq = 0
        self._unacked_rx = 0
        self._recv_lock = threading.Lock()

        # Single-flight reconnect.
        self._reconnect_lock = threading.Lock()

        self.epoch = 0
        self.reconnects = 0
        self.replayed_frames = 0
        self.replayed_bytes = 0
        self.reconnect_events: list = []  # dicts: epoch, outage_s, replayed
        self.peer_state: dict = {}
        self.tracer = NULL_TRACER

        self._connect(initial=True)

    @property
    def journal_depth(self) -> int:
        """Unacked data frames currently buffered for replay."""
        return len(self._journal)

    # -- connection management ----------------------------------------------
    def _mark_dead(self, transport) -> None:
        """Note that ``transport`` failed; close it so the peer sees EOF."""
        if transport is self._transport:
            self._transport_ok = False
        close = getattr(transport, "close", None)
        if close is not None:
            try:
                close()
            except Exception:
                pass

    def _connect(self, initial: bool = False) -> None:
        """(Re)dial + handshake + replay, under the retry policy.

        Called with ``_reconnect_lock`` held (or from ``__init__``).
        """
        started = time.monotonic()
        replay_before = self.replayed_frames
        attempts = [0]

        def attempt():
            attempts[0] += 1
            if not initial and self.tracer.enabled:
                self.tracer.instant(
                    "redial.attempt", cat="reconnect",
                    attempt=attempts[0], epoch=self.epoch,
                )
            transport = self._dial()
            try:
                peer_rx = self._handshake(transport)
                # Replay and transport swap happen in ONE locked section
                # of the SAME retried attempt: a frame journaled by a
                # concurrent send during recovery either lands in the
                # replay below or is transmitted by its sender after the
                # swap -- never silently stranded with a stale seq --
                # and a transport that dies DURING replay (faults can
                # strike the fresh wire too) re-enters the retry loop
                # instead of surfacing mid-recovery.
                with self._send_lock:
                    self._replay_from(transport, peer_rx)
                    self._transport = transport
                    self._transport_ok = True
            except Exception:
                self._mark_dead(transport)
                raise

        try:
            self.policy.run(
                attempt,
                retry_on=(ChannelError, OSError, ConnectionError),
                desc="reconnect",
            )
        except (ChannelError, OSError, ConnectionError) as exc:
            raise ChannelClosed(
                f"reconnect failed after retry budget "
                f"({self.policy.attempts} attempts / "
                f"{self.policy.deadline_s:.0f}s): {exc}"
            ) from exc

        self.epoch += 1
        if not initial:
            self.reconnects += 1
            replayed = self.replayed_frames - replay_before
            self.reconnect_events.append(
                {
                    "epoch": self.epoch,
                    "outage_s": time.monotonic() - started,
                    "replayed": replayed,
                }
            )
            tr = self.tracer
            if tr.enabled:
                # The resume handshake IS the transport-level resync
                # barrier: both sides agree on next-expected sequence
                # numbers before any new frame flows.
                tr.instant(
                    "resync.barrier", cat="reconnect",
                    epoch=self.epoch, replayed=replayed,
                )
                end = tr.now()
                tr.complete(
                    "reconnect.recover",
                    end - (time.monotonic() - started),
                    end,
                    cat="reconnect",
                    epoch=self.epoch,
                    attempts=attempts[0],
                    replayed=replayed,
                )

    def _handshake(self, transport: Channel) -> int:
        """Exchange HELLO frames; return the peer's next-expected seq."""
        state = self.state_provider() if self.state_provider is not None else {}
        transport.send_bytes(
            _HELLO + encode_msg(
                "hello", epoch=self.epoch + 1, rx=self._rx_seq, state=state, protocol=PROTOCOL
            )
        )
        frame = transport.recv_bytes(timeout=self.policy.deadline_s)
        if frame[:1] != _HELLO:
            raise ChannelError(
                f"resume handshake expected HELLO, got "
                f"{frame[:1]!r} ({len(frame)} bytes)"
            )
        return self._on_hello(frame)

    def _on_hello(self, frame: bytes) -> int:
        """Parse a peer HELLO; keep its state, return its next-expected seq."""
        hello = decode_msg(frame[1:], HANDSHAKE)
        check_peer_protocol(hello["protocol"])
        self.peer_state = hello["state"]
        return hello["rx"]

    def _replay_from(self, transport: Channel, peer_rx: int) -> None:
        """Trim acked frames and resend everything the peer is missing.

        The peer expects frame ``peer_rx`` next; everything journaled at
        or past it is replayed in order.  If our journal no longer holds
        ``peer_rx`` the peer acked frames it now claims it never saw --
        resume is impossible.  Caller holds ``_send_lock``.
        """
        self._journal = OrderedDict(
            (seq, fr) for seq, fr in self._journal.items() if seq >= peer_rx
        )
        if self._journal and min(self._journal) > peer_rx:
            raise ChannelClosed(
                f"peer expects frame {peer_rx} but the journal starts at "
                f"{min(self._journal)}; resume impossible (acked frames lost)"
            )
        for seq, fr in self._journal.items():
            transport.send_bytes(fr)
            self.replayed_frames += 1
            self.replayed_bytes += len(fr)

    def _reconnect(self) -> None:
        """Single-flight recovery; every caller returns once it is done."""
        with self._reconnect_lock:
            if self._closed:
                raise ChannelClosed("channel closed")
            if self._transport_ok:
                return  # another thread already recovered
            self._connect()

    # -- channel interface ---------------------------------------------------
    def send_bytes(self, data: bytes) -> None:
        """Journal then best-effort send; transient failures never raise."""
        if self._closed:
            raise ChannelClosed("channel closed")
        with self._send_lock:
            if len(self._journal) >= self.journal_limit:
                raise ChannelClosed(
                    f"send journal full ({self.journal_limit} unacked frames); "
                    f"the link has been down too long to buffer more"
                )
            seq = self._tx_seq
            self._tx_seq += 1
            frame = _DATA + _SEQ.pack(seq) + data
            self._journal[seq] = frame
            self.stats.record_send(len(data))
            if self._transport_ok:
                transport = self._transport
                try:
                    transport.send_bytes(frame)
                except ChannelError:
                    # Stay journaled; the next recv's reconnect replays it.
                    self._mark_dead(transport)

    def _send_ack(self) -> None:
        with self._send_lock:
            if not self._transport_ok:
                return
            transport = self._transport
            try:
                transport.send_bytes(_ACK + _SEQ.pack(self._rx_seq))
            except ChannelError:
                self._mark_dead(transport)
            else:
                self._unacked_rx = 0

    def recv_bytes(self, timeout: float = None) -> bytes:
        """Receive the next in-order data frame, healing the link as needed.

        ``timeout`` bounds each wait on a live transport; outages spend
        the retry policy's budget instead (so a long recovery is not
        charged against a short poll timeout).
        """
        if self._closed:
            raise ChannelClosed("channel closed")
        with self._recv_lock:
            return self._recv_locked(timeout)

    def _recv_locked(self, timeout: float) -> bytes:
        while True:
            if not self._transport_ok:
                self._reconnect()
            transport = self._transport
            try:
                frame = transport.recv_bytes(timeout=timeout)
            except ChannelTimeout:
                raise  # peer is alive but slow -- caller's business
            except ChannelError:
                if self._closed:
                    raise ChannelClosed("channel closed") from None
                self._mark_dead(transport)
                self._reconnect()
                continue

            kind = frame[:1]
            if kind == _ACK:
                acked = _SEQ.unpack_from(frame, 1)[0]
                with self._send_lock:
                    for seq in [s for s in self._journal if s < acked]:
                        del self._journal[seq]
                continue
            if kind == _HELLO:
                # Peer re-handshook on a transport we still hold (can
                # only happen when the link itself survived): honor the
                # resume request in place.
                peer_rx = self._on_hello(frame)
                with self._send_lock:
                    self._replay_from(transport, peer_rx)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "resync.barrier", cat="reconnect",
                        epoch=self.epoch, in_place=1,
                    )
                continue
            if kind != _DATA or len(frame) < 9:
                raise ChannelError(
                    f"unknown frame discriminator {kind!r} ({len(frame)} bytes)"
                )

            seq = _SEQ.unpack_from(frame, 1)[0]
            if seq < self._rx_seq:
                continue  # replayed duplicate -- already delivered
            if seq > self._rx_seq:
                raise ChannelError(
                    f"sequence gap: expected frame {self._rx_seq}, received "
                    f"{seq}; the peer journal was trimmed past our position"
                )
            self._rx_seq += 1
            self._unacked_rx += 1
            if self._unacked_rx >= self.ack_every:
                self._send_ack()
            data = frame[9:]
            self.stats.record_recv(len(data))
            return data

    def close(self) -> None:
        self._closed = True
        transport = self._transport
        self._transport_ok = False
        if transport is not None:
            close = getattr(transport, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass
