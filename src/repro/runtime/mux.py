"""Channel multiplexing: many tagged logical channels over one link.

The provisioning runtime needs several concurrent conversations between
the same two hosts -- the background Ferret extends, the triple
generator, and N consumer sessions -- but a deployment has *one* duplex
link.  :class:`MuxChannel` wraps any :class:`repro.ot.channel.Channel`
endpoint and hands out :class:`SubChannel` objects keyed by a string
tag; each sub-channel is itself a full ``Channel`` (typed helpers,
:class:`~repro.ot.channel.ChannelStats` accounting), so every existing
protocol runs over a sub-channel unchanged.

Framing: each message on the wire is ``u16 tag_len | tag utf-8 |
payload`` (:func:`encode_frame` / :func:`decode_frame`).  A
per-endpoint pump thread drains the underlying channel and routes
frames into per-tag inboxes, so receives on different sub-channels
never block each other.

Accounting: a sub-channel's stats record the *framed* size of its own
traffic (payload + tag header), so the per-tag byte counts partition
the underlying channel's totals exactly -- provisioning bytes and
consumer bytes stay separable, and per-protocol ``rounds`` keep their
meaning on the sub-channel where the protocol actually runs.

Liveness: an optional heartbeat (``heartbeat_s``) emits empty frames on
the reserved ``hb/`` tag and declares the peer dead after
``heartbeat_miss`` silent intervals, so blocked receivers fail fast on
silent peer death instead of burning their full timeouts.  Heartbeat
frames are dropped inline by the pump (never queued, not attributed to
any sub-channel), and the feature defaults off so per-tag byte
partition remains exact unless liveness is explicitly requested.
"""

from __future__ import annotations

import queue
import struct
import threading
import time

from repro.errors import ChannelClosed, ChannelError, ChannelTimeout
from repro.obs.trace import NULL_TRACER
from repro.ot.channel import Channel, DEFAULT_RECV_TIMEOUT

#: Frame header: little-endian u16 tag length.
_TAG_HEADER = struct.Struct("<H")

#: Reserved tag for liveness frames (handled inline by the pump).
HEARTBEAT_TAG = "hb/"


def encode_frame(tag_bytes: bytes, payload: bytes) -> bytes:
    """Wire-encode one mux frame: ``u16 tag_len | tag | payload``."""
    if len(tag_bytes) > 0xFFFF:
        raise ChannelError("sub-channel tag too long")
    return _TAG_HEADER.pack(len(tag_bytes)) + tag_bytes + payload


def decode_frame(frame: bytes) -> tuple:
    """Parse a wire frame into ``(tag, payload)``.

    Raises :class:`ChannelError` on any malformed input (short header,
    tag length exceeding the frame, non-UTF-8 tag bytes) -- the pump
    and the fuzz suite both route through here.
    """
    try:
        (tag_len,) = _TAG_HEADER.unpack_from(frame)
    except struct.error as exc:
        raise ChannelError(f"malformed mux frame: {exc!r}") from exc
    end = _TAG_HEADER.size + tag_len
    if len(frame) < end:
        raise ChannelError(
            f"malformed mux frame: tag length {tag_len} exceeds frame "
            f"({len(frame)} bytes)"
        )
    try:
        tag = frame[_TAG_HEADER.size : end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ChannelError(f"malformed mux frame: {exc!r}") from exc
    return tag, frame[end:]


class SubChannel(Channel):
    """One tagged logical channel of a :class:`MuxChannel` endpoint."""

    def __init__(self, mux: "MuxChannel", tag: str):
        super().__init__()
        self.tag = tag
        self._mux = mux
        self._tag_bytes = tag.encode("utf-8")
        if len(self._tag_bytes) > 0xFFFF:
            raise ChannelError("sub-channel tag too long")
        self._inbox: queue.Queue = queue.Queue()
        self.rx_frames = 0  # frames routed here by the pump (resume state)

    def send_bytes(self, data: bytes) -> None:
        frame = encode_frame(self._tag_bytes, data)
        self.stats.record_send(len(frame))
        self._mux._send_frame(frame)

    def recv_bytes(self, timeout: float = None) -> bytes:
        timeout = self._mux.timeout if timeout is None else timeout
        try:
            item = self._inbox.get_nowait()
        except queue.Empty:
            # Nothing queued: fail fast if the pump already died, rather
            # than sitting out the full timeout first.
            self._mux._check_pump()
            try:
                item = self._inbox.get(timeout=timeout)
            except queue.Empty as exc:
                self._mux._check_pump()
                raise ChannelTimeout(
                    f"recv timed out on sub-channel {self.tag!r}"
                ) from exc
        if item is _CLOSED:
            # Re-seed so every other thread blocked on this inbox (and
            # any later receive) also wakes promptly.
            self._inbox.put(_CLOSED)
            self._mux._check_pump()  # surfaces the original transport error
            raise ChannelClosed(f"mux closed while sub-channel {self.tag!r} waited")
        self.stats.record_recv(len(item) + _TAG_HEADER.size + len(self._tag_bytes))
        return item

    def drain(self) -> list:
        """Pop every queued payload without blocking (resync helper).

        Drained frames still count toward this sub-channel's receive
        stats -- they crossed the wire and must stay attributed, even
        though the consumer discards them.
        """
        out = []
        while True:
            try:
                item = self._inbox.get_nowait()
            except queue.Empty:
                return out
            if item is _CLOSED:
                self._inbox.put(_CLOSED)
                return out
            self.stats.record_recv(
                len(item) + _TAG_HEADER.size + len(self._tag_bytes)
            )
            out.append(item)


#: Sentinel pushed into every inbox when the mux shuts down.
_CLOSED = object()


class MuxChannel:
    """Multiplexes tagged sub-channels over one duplex channel endpoint.

    Both peers wrap their respective endpoints and must use matching
    tags.  Sub-channels are created lazily on first :meth:`sub` call
    *or* on first incoming frame for an unknown tag (so the creation
    order on the two hosts need not match).

    ``heartbeat_s`` (both peers must agree) starts a beat thread
    sending empty ``hb/`` frames at that interval; if *nothing* arrives
    for ``heartbeat_miss`` intervals the pump declares the peer dead
    and poisons every inbox, so ``wait_produced``-style callers fail in
    seconds instead of their full deadline.
    """

    def __init__(
        self,
        base: Channel,
        timeout: float = DEFAULT_RECV_TIMEOUT,
        heartbeat_s: float = None,
        heartbeat_miss: int = 3,
    ):
        self.base = base
        self.timeout = timeout
        self.heartbeat_s = heartbeat_s
        self.heartbeat_miss = int(heartbeat_miss)
        self._subs: dict = {}
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._closed = threading.Event()
        self._pump_error = None
        self._pump_dead = False
        self._last_rx = time.monotonic()
        self.tracer = NULL_TRACER
        self._pump = threading.Thread(
            target=self._pump_loop, name="mux-pump", daemon=True
        )
        self._pump.start()
        self._beat = None
        if heartbeat_s is not None:
            self._beat = threading.Thread(
                target=self._beat_loop, name="mux-heartbeat", daemon=True
            )
            self._beat.start()

    # -- sub-channel management --------------------------------------------
    def sub(self, tag: str) -> SubChannel:
        """The sub-channel for ``tag`` (created on first use)."""
        with self._lock:
            if tag not in self._subs:
                if self._closed.is_set():
                    raise ChannelClosed("mux is closed")
                sub = SubChannel(self, tag)
                if self._pump_dead:
                    # Created after the pump exited: no frame will ever
                    # arrive, so seed the sentinel that wakes receivers.
                    sub._inbox.put(_CLOSED)
                self._subs[tag] = sub
            return self._subs[tag]

    @property
    def tags(self) -> tuple:
        with self._lock:
            return tuple(sorted(self._subs))

    def stats_by_tag(self) -> dict:
        """Per-tag ChannelStats snapshot (for attribution reports)."""
        with self._lock:
            return {tag: sub.stats for tag, sub in self._subs.items()}

    def receive_counts(self) -> dict:
        """Per-tag count of frames the pump has routed (resume state).

        This is the mux's contribution to the reconnect handshake: the
        peer can tell from these counts exactly how far each logical
        stream progressed before an outage.
        """
        with self._lock:
            return {tag: sub.rx_frames for tag, sub in self._subs.items()}

    # -- transport ----------------------------------------------------------
    def _send_frame(self, frame: bytes) -> None:
        if self._closed.is_set():
            raise ChannelClosed("mux is closed")
        with self._send_lock:
            self.base.send_bytes(frame)

    def _beat_loop(self) -> None:
        beat = encode_frame(HEARTBEAT_TAG.encode("utf-8"), b"")
        while not self._closed.wait(self.heartbeat_s):
            try:
                self._send_frame(beat)
            except ChannelError:
                return  # link down or mux closed; the pump handles it
            if self.tracer.enabled:
                self.tracer.instant("heartbeat", cat="liveness")

    def _heartbeat_expired(self) -> bool:
        if self.heartbeat_s is None:
            return False
        silence = time.monotonic() - self._last_rx
        return silence > self.heartbeat_s * self.heartbeat_miss

    def _pump_loop(self) -> None:
        try:
            while not self._closed.is_set():
                try:
                    frame = self.base.recv_bytes(timeout=0.2)
                except ChannelTimeout:
                    if self._heartbeat_expired():
                        if self.tracer.enabled:
                            self.tracer.instant(
                                "heartbeat.lost", cat="liveness",
                                silent_s=time.monotonic() - self._last_rx,
                            )
                        self._pump_error = ChannelClosed(
                            f"peer heartbeat lost (silent for "
                            f"{self.heartbeat_miss} x {self.heartbeat_s}s)"
                        )
                        break
                    continue
                except BaseException as exc:  # noqa: BLE001 - any transport fault
                    if not self._closed.is_set():
                        self._pump_error = exc
                    break
                self._last_rx = time.monotonic()
                try:
                    tag, payload = decode_frame(frame)
                except ChannelError as exc:
                    self._pump_error = exc
                    break
                if tag == HEARTBEAT_TAG:
                    continue  # liveness only -- never queued or attributed
                try:
                    sub = self.sub(tag)
                except ChannelClosed:
                    break  # closed while routing the final frame
                sub.rx_frames += 1
                sub._inbox.put(payload)
        finally:
            # Wake every blocked receiver so they fail loudly instead of
            # timing out one by one -- even if the loop died unexpectedly.
            with self._lock:
                self._pump_dead = True
            self._poison_all()

    def _poison_all(self) -> None:
        with self._lock:
            for sub in self._subs.values():
                sub._inbox.put(_CLOSED)

    def _check_pump(self) -> None:
        if isinstance(self._pump_error, ChannelClosed):
            raise ChannelClosed(f"peer closed the mux link: {self._pump_error}")
        if self._pump_error is not None:
            raise ChannelError(f"mux pump died: {self._pump_error!r}")
        if self._pump_dead and not self._closed.is_set():
            raise ChannelClosed("mux pump exited")

    def close(self) -> None:
        """Stop the pump and wake all blocked receivers promptly.

        Receivers are poisoned immediately -- a thread parked in
        ``recv_bytes`` sees :class:`ChannelClosed` now, not after the
        pump's next poll tick or (worse) its own full timeout.
        """
        self._closed.set()
        self._poison_all()
        self._pump.join(timeout=2.0)
        if self._beat is not None:
            self._beat.join(timeout=2.0)
