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

A round is counted IKNP-style: the channel's round counter increments
each time a party sends after having received (i.e. each direction
flip), which matches how MPC papers report round complexity.
"""

from __future__ import annotations

import queue
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.crypto import blocks
from repro.errors import ChannelClosed, ChannelError, ChannelTimeout


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

    # -- typed helpers used by the protocol code ----------------------------
    def send_blocks(self, arr: np.ndarray) -> None:
        """Send a (n, 2) uint64 block array."""
        self.send_bytes(blocks.to_bytes(arr))

    def recv_blocks(self) -> np.ndarray:
        """Receive a block array sent by :meth:`send_blocks`."""
        return blocks.from_bytes(self.recv_bytes())

    def send_bits(self, bits: np.ndarray) -> None:
        """Send a 0/1 uint8 vector, bit-packed, prefixed with its length."""
        bits = np.asarray(bits, dtype=np.uint8)
        header = np.uint64(bits.shape[0]).tobytes()
        self.send_bytes(header + np.packbits(bits, bitorder="little").tobytes())

    def recv_bits(self) -> np.ndarray:
        data = self.recv_bytes()
        n = int(np.frombuffer(data[:8], dtype=np.uint64)[0])
        bits = np.unpackbits(np.frombuffer(data[8:], dtype=np.uint8), bitorder="little")
        return bits[:n].copy()

    def send_ring(self, arr: np.ndarray) -> None:
        """Send a uint64 ring-element array (flattened, raw bytes)."""
        self.send_bytes(np.ascontiguousarray(arr, dtype=np.uint64).tobytes())

    def recv_ring(self) -> np.ndarray:
        """Receive a flat uint64 ring-element vector."""
        return np.frombuffer(self.recv_bytes(), dtype=np.uint64).copy()

    def send_int(self, value: int, width: int = 8) -> None:
        """Send a non-negative integer in ``width`` little-endian bytes."""
        self.send_bytes(int(value).to_bytes(width, "little"))

    def recv_int(self, width: int = 8) -> int:
        data = self.recv_bytes()
        if len(data) != width:
            raise ChannelError(
                f"expected a {width}-byte integer, received {len(data)} bytes"
            )
        return int.from_bytes(data, "little")


#: Default blocking-receive timeout; generous enough for CI, short
#: enough that a deadlocked protocol fails loudly.
DEFAULT_RECV_TIMEOUT = 60.0


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
    relies on.  Sends are serialized with a lock so multiplexed callers
    (:class:`repro.runtime.mux.MuxChannel`) can share one endpoint.

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
                chunk = self._sock.recv(1 << 20)
            except (OSError, ValueError) as exc:  # reset, EBADF, closed fd
                raise ChannelClosed(
                    f"socket receive failed after {len(self._rx)} of {n} "
                    f"frame bytes: {exc}"
                ) from exc
            if not chunk:
                raise ChannelClosed(
                    f"peer closed the connection mid-frame "
                    f"({len(self._rx)} of {n} expected bytes buffered)"
                )
            self._rx += chunk

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
            self._fill(8 + length, deadline)
            data = bytes(self._rx[8 : 8 + length])
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
    ``(result_a, result_b)``, re-raises either side's exception as
    :class:`PartyError`, and treats a join timeout as a deadlock --
    failures can never be silently swallowed in a worker thread.
    """
    results = {}
    errors = {}

    def runner(name, fn):
        try:
            results[name] = fn()
        except BaseException as exc:  # noqa: BLE001 - must cross the thread
            errors[name] = exc

    t_a = threading.Thread(target=runner, args=("a", fn_a), daemon=True)
    t_b = threading.Thread(target=runner, args=("b", fn_b), daemon=True)
    t_a.start()
    t_b.start()
    t_a.join(timeout)
    t_b.join(timeout)
    for name, exc in errors.items():
        raise PartyError(f"party {name!r} failed: {exc!r}") from exc
    if t_a.is_alive() or t_b.is_alive():
        raise ChannelError("parties deadlocked (thread still alive after timeout)")
    return results.get("a"), results.get("b")


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
    t_a.join(timeout)
    t_b.join(timeout)
    if t_a.is_alive() or t_b.is_alive():
        raise ChannelError("protocol deadlocked (thread still alive after timeout)")
    if errors:
        # The root cause, not the ChannelClosed it provoked on the peer.
        name, exc = min(errors.items(), key=lambda kv: isinstance(kv[1], ChannelClosed))
        raise PartyError(f"party {name!r} failed: {exc!r}") from exc
    return results["a"], results["b"], chan_a.stats, chan_b.stats
