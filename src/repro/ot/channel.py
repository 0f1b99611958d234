"""Two-party channels with communication accounting.

Every protocol in this package speaks through a :class:`Channel`, so
bytes and round trips are counted exactly -- that is what backs the
communication columns of Figure 7(b) and Figure 16.  Three transports
implement it:

* :class:`LocalChannel` -- an in-memory duplex pair; parties run in two
  threads via :func:`run_pair` so genuinely interactive protocols
  (derandomized OTs, SPCOT, the online MPC ops) execute in their
  natural shape.
* :class:`SocketChannel` -- length-prefixed messages over a real OS
  socket, so the same protocol code runs unchanged between two
  processes (or two machines).
* :class:`repro.runtime.mux.MuxChannel` sub-channels -- tagged logical
  channels multiplexed over either of the above.

Protocols never pack bytes themselves: one codec on :class:`Channel`
decides the wire format of every typed message.  Integers and bits
travel as :meth:`Channel.send_lanes` frames at their declared width
(the narrowest of 1 / 2 / 4 / 8 bytes per lane, 1-bit lanes bit-packed
behind an 8-byte count) and 128-bit blocks as
:meth:`Channel.send_blocks` frames; the receiver names the shape it
expects and gets a :class:`~repro.errors.ProtocolError` for any other
frame.  Byte models count through :func:`lanes_bytes`.  Control
messages are compact JSON objects, ``{"op": ..., field: ...}``, parsed
only by :func:`decode_msg` against the receiver's schema (see there).
The format is protocol: both parties must run the same version.

A round is counted IKNP-style: the channel's round counter increments
each time a party sends after having received (i.e. each direction
flip), which matches how MPC papers report round complexity.
"""

from __future__ import annotations

import json
import queue
import re
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.crypto import blocks
from repro.errors import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ParameterError,
    ProtocolError,
)


@dataclass
class ChannelStats:
    """Byte / message / round accounting for one endpoint."""

    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    rounds: int = 0
    _last_was_recv: bool = field(default=True, repr=False)

    def record_send(self, n_bytes: int) -> None:
        self.bytes_sent += n_bytes
        self.messages_sent += 1
        if self._last_was_recv:
            self.rounds += 1
            self._last_was_recv = False

    def record_recv(self, n_bytes: int) -> None:
        self.bytes_received += n_bytes
        self._last_was_recv = True

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    def as_dict(self) -> dict:
        return {
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "messages_sent": self.messages_sent,
            "rounds": self.rounds,
        }


class Channel:
    """Abstract duplex byte channel with accounting helpers."""

    def __init__(self):
        self.stats = ChannelStats()

    # -- raw byte interface -------------------------------------------------
    def send_bytes(self, data: bytes) -> None:
        raise NotImplementedError

    def recv_bytes(self, timeout: float = None) -> bytes:
        """Blocking receive; ``timeout`` (seconds) overrides the channel
        default, raising :class:`ChannelTimeout` on expiry.  Pollers
        (the mux pump, the service follower loop) rely on every
        transport honouring this parameter."""
        raise NotImplementedError

    # -- the wire codec: every typed message goes through these four ---------
    def send_lanes(self, values, bits: int) -> None:
        """Send integers below ``2^bits`` as one frame of ``bits``-wide
        lanes (:func:`lanes_bytes` bytes); a value that does not fit
        raises :class:`ParameterError` instead of being truncated."""
        values = np.asarray(values).reshape(-1)
        lane = lane_bytes(bits)
        if values.size and (
            int(values.max()) >> bits or values.dtype.kind == "i" and int(values.min()) < 0
        ):
            raise ParameterError(f"lane values must lie in [0, 2^{bits})")
        if bits == 1:
            packed = np.packbits(values.astype(np.uint8), bitorder="little")
            self.send_bytes(values.size.to_bytes(_COUNT_BYTES, "little") + packed.tobytes())
        else:
            self.send_bytes(values.astype(f"<u{lane}").tobytes())

    def recv_lanes(self, n: int, bits: int, timeout: float = None) -> np.ndarray:
        """Receive the frame of exactly ``n`` ``bits``-wide lanes sent by
        :meth:`send_lanes`, as a writable ``(n,)`` array of the lane's own
        unsigned dtype: uint8 for 1-bit lanes, else uint8 / uint16 /
        uint32 / uint64 as :func:`lane_bytes` says (arithmetic with a
        uint64 operand widens; alone it wraps at the lane width).  Any
        other length (or, for 1-bit lanes, count) is a
        :class:`ProtocolError` naming the declared shape."""
        lane = lane_bytes(bits)
        data = self.recv_bytes(timeout=timeout)
        expected = lanes_bytes(n, bits)
        if len(data) != expected:
            raise _shape_error(f"{n} {bits}-bit lanes", expected, len(data))
        if bits > 1:
            return np.frombuffer(data, dtype=f"<u{lane}").astype(f"u{lane}")
        count = int.from_bytes(data[:_COUNT_BYTES], "little")
        if count != n:
            raise ProtocolError(f"frame of {n} 1-bit lanes claims {count} lanes")
        packed = np.frombuffer(data, dtype=np.uint8, offset=_COUNT_BYTES)
        return np.unpackbits(packed, count=n, bitorder="little")

    def send_blocks(self, arr: np.ndarray) -> None:
        """Send an (n, 2) uint64 block array, 16 bytes per block."""
        self.send_bytes(blocks.to_bytes(arr))

    def recv_blocks(self, n: int) -> np.ndarray:
        """Receive exactly ``n`` blocks sent by :meth:`send_blocks`."""
        data = self.recv_bytes()
        if len(data) != n * blocks.BLOCK_BYTES:
            raise _shape_error(f"{n} blocks", n * blocks.BLOCK_BYTES, len(data))
        return blocks.from_bytes(data)

    def send_msg(self, op: str, **fields) -> None:
        """Send one control message (:func:`encode_msg`)."""
        self.send_bytes(encode_msg(op, **fields))

    def recv_msg(self, schema: dict, timeout: float = None) -> dict:
        """Receive one control message of ``schema`` (:func:`decode_msg`)."""
        return decode_msg(self.recv_bytes(timeout=timeout), schema)


#: Bytes of the lane count that heads a 1-bit frame (the only width
#: whose byte length cannot carry its lane count).
_COUNT_BYTES = 8


def lane_bytes(bits: int) -> int:
    """Wire bytes of one ``bits``-wide lane: the narrowest of 1 / 2 / 4 / 8."""
    if not 1 <= bits <= 64:
        raise ParameterError("lane width must be in [1, 64] bits")
    return next(b for b in (1, 2, 4, 8) if 8 * b >= bits)


def lanes_bytes(n: int, bits: int) -> int:
    """Wire bytes of one :meth:`Channel.send_lanes` frame of ``n`` lanes
    -- the one byte model every protocol's predictor builds on: 1-bit
    lanes are an 8-byte count plus ``n`` packed bits, wider ones ``n``
    raw little-endian lanes of :func:`lane_bytes` each."""
    if bits == 1:
        return _COUNT_BYTES + (n + 7) // 8
    return n * lane_bytes(bits)


def _shape_error(shape: str, expected: int, got: int) -> ProtocolError:
    return ProtocolError(f"frame of {shape} must be {expected} bytes, got {got}")


def encode_msg(op: str, **fields) -> bytes:
    """One control message: the compact JSON object ``{"op": op, **fields}``."""
    return json.dumps({"op": op, **fields}, separators=(",", ":")).encode()


def decode_msg(frame, schema: dict) -> dict:
    """The one parser of control bytes: the message (op included) if it
    is a UTF-8 JSON object whose op ``schema`` declares, ``op -> {field:
    spec}``, with exactly those fields, each of its spec: ``int``
    (non-negative, below 2^63, never a bool), ``str``, ``[int]``,
    ``{str: int}`` or ``dict`` (any object).  Otherwise a
    :class:`ProtocolError` naming the op and the field."""
    try:
        msg = json.loads(bytes(frame).decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting
        raise ProtocolError(f"control frame {bytes(frame)[:64]!r} is not JSON: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(f"control frame holds a {type(msg).__name__}, not an object")
    op = msg.get("op")
    fields = schema.get(op) if isinstance(op, str) else None
    if fields is None:
        raise ProtocolError(f"unknown control op {op!r}; expected one of {sorted(schema)}")
    got = msg.keys() - {"op"}
    if got != fields.keys():
        missing, extra = sorted(fields.keys() - got), sorted(got - fields.keys())
        raise ProtocolError(f"control op {op!r}: missing fields {missing}, extra fields {extra}")
    for name, spec in fields.items():
        if not _fits(msg[name], spec):
            spec = re.sub(r"<class '(\w+)'>", r"\1", repr(spec))  # "[int]", "{str: int}"
            raise ProtocolError(
                f"control op {op!r}: field {name!r} must be {spec}, got {repr(msg[name])[:64]}"
            )
    return msg


def _fits(value, spec) -> bool:
    if spec is int:  # fits a signed 64-bit lane
        return type(value) is int and 0 <= value < 1 << 63
    if spec in (str, dict):
        return type(value) is spec
    if isinstance(spec, list):  # [item]
        return type(value) is list and all(_fits(v, spec[0]) for v in value)
    ((key, item),) = spec.items()  # {key: item}
    return type(value) is dict and all(_fits(k, key) and _fits(v, item) for k, v in value.items())


#: Default blocking-receive timeout; generous enough for CI, short
#: enough that a deadlocked protocol fails loudly.
DEFAULT_RECV_TIMEOUT = 60.0


#: Largest frame a :class:`SocketChannel` accepts.  The length prefix
#: comes from the peer, so it is checked before anything is buffered;
#: the largest real frame (one FIG16 Gilboa chunk) is about 25 MiB.
MAX_FRAME_BYTES = 1 << 30

#: Size of a :class:`SocketChannel`'s reused receive buffer: the most
#: one ``recv_into`` call takes off the socket.
_RECV_CHUNK = 1 << 20


#: Queue sentinel a closing :class:`LocalChannel` endpoint posts to its peer.
_CLOSED = object()


class LocalChannel(Channel):
    """One endpoint of an in-memory duplex pair (thread-safe).

    ``timeout`` is the default blocking-receive timeout in seconds
    (``None`` waits forever); paper-sized runs and slow CI boxes can
    raise it via :meth:`pair` / :func:`run_pair` instead of dying
    spuriously at the old hardcoded 60 s.
    """

    def __init__(
        self,
        inbox: "queue.Queue",
        outbox: "queue.Queue",
        timeout: float = DEFAULT_RECV_TIMEOUT,
    ):
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox
        self.timeout = timeout

    @staticmethod
    def pair(timeout: float = DEFAULT_RECV_TIMEOUT) -> tuple:
        """Create two connected endpoints (a_to_b, b_to_a)."""
        q_ab: queue.Queue = queue.Queue()
        q_ba: queue.Queue = queue.Queue()
        return LocalChannel(q_ba, q_ab, timeout), LocalChannel(q_ab, q_ba, timeout)

    def send_bytes(self, data: bytes) -> None:
        self.stats.record_send(len(data))
        self._outbox.put(data)

    def recv_bytes(self, timeout: float = None) -> bytes:
        timeout = self.timeout if timeout is None else timeout
        try:
            data = self._inbox.get(timeout=timeout)
        except queue.Empty as exc:
            raise ChannelTimeout("recv timed out; is the peer still running?") from exc
        if data is _CLOSED:
            self._inbox.put(_CLOSED)  # every later receive fails the same way
            raise ChannelClosed("peer closed the channel")
        self.stats.record_recv(len(data))
        return data

    def close(self) -> None:
        """Hang up: once the peer has drained what was sent before, its
        ``recv_bytes`` raises :class:`ChannelClosed` at once instead of
        waiting out its timeout (a socket's EOF, for the in-memory pair)."""
        self._outbox.put(_CLOSED)


class SocketChannel(Channel):
    """Length-prefixed messages over a connected OS socket.

    Framing is a fixed 8-byte little-endian length header followed by
    the payload, preserving the message boundaries every protocol here
    relies on; a header over :data:`MAX_FRAME_BYTES` is refused before
    any of its payload is buffered.  Sends are serialized with a lock so
    multiplexed callers (:class:`repro.runtime.mux.MuxChannel`) can
    share one endpoint.

    The socket stays in blocking mode (sends must never time out
    mid-stream -- a partial ``sendall`` would desynchronize the
    framing); receive timeouts are implemented with ``select`` instead,
    and partially received messages are retained in a buffer across
    timeouts so a polling receiver (the mux pump) can resume cleanly.
    """

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_RECV_TIMEOUT):
        super().__init__()
        self._sock = sock
        self._sock.settimeout(None)  # blocking; recv waits via select
        self.timeout = timeout
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._rx = bytearray()  # partial-message buffer (survives timeouts)
        # One receive buffer for the channel's life: a fresh 1 MiB
        # ``recv`` result per call is a malloc the OS may fault in anew.
        # Uninitialised, so only the pages a receive writes are resident.
        self._chunk = memoryview(np.empty(_RECV_CHUNK, dtype=np.uint8))

    # -- constructors -------------------------------------------------------
    @staticmethod
    def pair(timeout: float = DEFAULT_RECV_TIMEOUT) -> tuple:
        """Two connected endpoints over a real OS socketpair."""
        sa, sb = socket.socketpair()
        return SocketChannel(sa, timeout), SocketChannel(sb, timeout)

    @classmethod
    def listen(
        cls, host: str = "127.0.0.1", port: int = 0, timeout: float = DEFAULT_RECV_TIMEOUT
    ) -> "SocketListener":
        """Bind a listener; ``accept()`` yields a connected channel."""
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        return SocketListener(srv, timeout)

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        timeout: float = DEFAULT_RECV_TIMEOUT,
        connect_timeout: float = 10.0,
    ) -> "SocketChannel":
        """Connect to a listening peer (used by the second process)."""
        sock = socket.create_connection((host, port), timeout=connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock, timeout)

    # -- transport ----------------------------------------------------------
    def _fill(self, n: int, deadline: float) -> None:
        """Grow the receive buffer to >= n bytes; buffer survives timeouts.

        A peer that hangs up mid-frame raises :class:`ChannelClosed`
        naming the partial byte count -- never a bare ``struct.error``
        from a short header, and never an indefinite select loop (a
        half-closed socket is readable, so ``recv`` returns ``b""``
        immediately and the loop exits through the EOF branch).
        """
        while len(self._rx) < n:
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not select.select(
                        [self._sock], [], [], remaining
                    )[0]:
                        raise ChannelTimeout(
                            "socket recv timed out; is the peer still running?"
                        )
                got = self._sock.recv_into(self._chunk)
            except (OSError, ValueError) as exc:  # reset, EBADF, closed fd
                raise ChannelClosed(
                    f"socket receive failed after {len(self._rx)} of {n} "
                    f"frame bytes: {exc}"
                ) from exc
            if not got:
                raise ChannelClosed(
                    f"peer closed the connection mid-frame "
                    f"({len(self._rx)} of {n} expected bytes buffered)"
                )
            self._rx += self._chunk[:got]

    def send_bytes(self, data: bytes) -> None:
        with self._send_lock:
            self.stats.record_send(len(data))
            try:
                self._sock.sendall(struct.pack("<Q", len(data)) + data)
            except OSError as exc:
                raise ChannelClosed(f"socket send failed: {exc}") from exc

    def recv_bytes(self, timeout: float = None) -> bytes:
        timeout = self.timeout if timeout is None else timeout
        with self._recv_lock:
            # Deadline starts once this thread's turn begins: waiting on
            # another thread's receive must not eat this one's budget.
            deadline = None if timeout is None else time.monotonic() + timeout
            self._fill(8, deadline)
            (length,) = struct.unpack_from("<Q", self._rx)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"peer announced a {length}-byte frame; the bound is {MAX_FRAME_BYTES}"
                )
            self._fill(8 + length, deadline)
            # One copy out of the buffer; the view must be released
            # before the bytearray may resize.
            with memoryview(self._rx) as view:
                data = bytes(view[8 : 8 + length])
            del self._rx[: 8 + length]
        self.stats.record_recv(len(data))
        return data

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class SocketListener:
    """A bound, listening TCP socket that accepts SocketChannels.

    By default ``accept()`` closes the listening socket after the first
    connection (the original one-shot rendezvous).  Reconnecting
    servers pass ``keep_open=True`` so the same bound port keeps
    accepting redials across session epochs.
    """

    def __init__(self, srv: socket.socket, timeout: float):
        self._srv = srv
        self._timeout = timeout

    @property
    def port(self) -> int:
        return self._srv.getsockname()[1]

    def accept(
        self, accept_timeout: float = 30.0, keep_open: bool = False
    ) -> SocketChannel:
        try:
            self._srv.settimeout(accept_timeout)
            conn, _ = self._srv.accept()
        except socket.timeout as exc:
            # Keep the listener open so the caller can retry accept().
            raise ChannelTimeout("no peer connected before the timeout") from exc
        except OSError as exc:  # listener closed under a waiting accept
            raise ChannelClosed(f"listener closed: {exc}") from exc
        if not keep_open:
            self._srv.close()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return SocketChannel(conn, self._timeout)

    def close(self) -> None:
        self._srv.close()


class PartyError(ChannelError):
    """One side of a :func:`run_pair` execution raised; wraps the cause."""


def run_concurrently(fn_a, fn_b, timeout: float = 300.0) -> tuple:
    """Run two zero-argument party callables in parallel threads.

    Like :func:`run_pair` but for callables already bound to their
    endpoints (service sessions, prefill drivers): returns
    ``(result_a, result_b)``, re-raises the first side's exception as
    :class:`PartyError` as soon as that side's thread ends (its peer,
    left blocked on a receive, is not waited for), and treats a party
    still running after ``timeout`` as a deadlock -- failures can never
    be silently swallowed in a worker thread.
    """
    finished = queue.SimpleQueue()

    def runner(name, fn):
        try:
            finished.put((name, fn(), None))
        except BaseException as exc:  # noqa: BLE001 - must cross the thread
            finished.put((name, None, exc))

    for name, fn in (("a", fn_a), ("b", fn_b)):
        threading.Thread(target=runner, args=(name, fn), daemon=True).start()
    deadline = time.monotonic() + timeout
    results = {}
    while len(results) < 2:
        try:
            name, result, exc = finished.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise ChannelError("parties deadlocked (thread still alive after timeout)") from None
        if exc is not None:
            raise PartyError(f"party {name!r} failed: {exc!r}") from exc
        results[name] = result
    return results["a"], results["b"]


def run_pair(
    party_a, party_b, timeout: float = 300.0, recv_timeout: float = DEFAULT_RECV_TIMEOUT
) -> tuple:
    """Run two party callables concurrently over a fresh channel pair.

    Each callable receives its :class:`LocalChannel` endpoint and runs in
    its own thread; returns ``(result_a, result_b)``.  Exceptions on
    either side are re-raised in the caller (wrapped in PartyError) so
    test failures point at the faulting party: a party that raises
    closes its endpoint, so the peer fails with :class:`ChannelClosed`
    in milliseconds instead of blocking until ``recv_timeout``, and the
    error reported is the one that is not that echo.  ``timeout`` bounds
    the whole execution; ``recv_timeout`` is each channel's
    blocking-receive patience (raise both for paper-sized runs).
    """
    chan_a, chan_b = LocalChannel.pair(timeout=recv_timeout)
    results = {}
    errors = {}

    def runner(name, fn, chan):
        try:
            results[name] = fn(chan)
        except BaseException as exc:  # noqa: BLE001 - must cross the thread
            errors[name] = exc
            chan.close()

    t_a = threading.Thread(target=runner, args=("a", party_a, chan_a), daemon=True)
    t_b = threading.Thread(target=runner, args=("b", party_b, chan_b), daemon=True)
    t_a.start()
    t_b.start()
    deadline = time.monotonic() + timeout
    t_a.join(timeout)
    t_b.join(max(0.0, deadline - time.monotonic()))
    if t_a.is_alive() or t_b.is_alive():
        raise ChannelError("protocol deadlocked (thread still alive after timeout)")
    if errors:
        # The root cause, not the ChannelClosed it provoked on the peer.
        name, exc = min(errors.items(), key=lambda kv: isinstance(kv[1], ChannelClosed))
        raise PartyError(f"party {name!r} failed: {exc!r}") from exc
    return results["a"], results["b"], chan_a.stats, chan_b.stats
