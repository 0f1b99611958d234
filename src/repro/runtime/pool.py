"""Thread-safe typed correlation pools with watermark bookkeeping.

A pool buffers one kind of correlation (sender COTs, receiver COTs,
random OTs, bit/ring triples, shape-keyed matrix triples) produced by
the background provisioning service and consumed by concurrent
sessions.  The crucial design point
is that a correlation is only useful if *both* parties consume the same
one, so pools index their contents by **absolute position** in the
production stream:

* ``reserve(n)`` (allocation authority only -- party 0 in the service)
  claims the next range ``[lo, lo+n)`` and is purely local bookkeeping;
* ``take(lo, n)`` (both parties) blocks until the range has been
  produced and returns its contents.

Party 0 reserves and tells party 1 the offsets in-band (one message on
the session's sub-channel per consumer verb), so draws land on mirrored correlations no
matter how threads interleave on either host.

Backpressure is demand-driven: ``reserve`` may run ahead of production
(level goes negative), which trips the ``refill`` event the service
worker waits on; ``take`` blocks until the worker catches up, with the
wait recorded as stall time in :class:`PoolStats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PoolClosed, PoolTimeout, ServiceError
from repro.mpc.triples import BitTriples, MatrixTriples, RingTriples
from repro.mpc.truncation import TruncPairs
from repro.obs.trace import NULL_TRACER
from repro.ot.cot import CotReceiverBatch, CotSenderBatch

#: Ceiling for waits whose caller passed no explicit timeout.  Generous
#: enough for paper-scale prefills, but bounded: no runtime wait may
#: hang forever on a dead producer.
DEFAULT_WAIT_TIMEOUT_S = 300.0

#: Consumed bytes a pool holds on to before it compacts its buffers.  In
#: bytes, not items: one matrix-triple item is a whole triple (megabytes
#: at Fig. 16 shapes) drawn one per request, one COT item is 16 bytes.
TRIM_BYTES = 1 << 18


@dataclass
class PoolStats:
    """Consumption/production accounting for one pool."""

    draws: int = 0  # take() calls served
    items_drawn: int = 0
    refills: int = 0  # append() calls
    items_refilled: int = 0
    stalled_draws: int = 0  # draws that had to wait for production
    stall_time_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of draws served without waiting for the producer."""
        if self.draws == 0:
            return 1.0
        return 1.0 - self.stalled_draws / self.draws

    def as_dict(self) -> dict:
        return {
            "draws": self.draws,
            "items_drawn": self.items_drawn,
            "refills": self.refills,
            "items_refilled": self.items_refilled,
            "stalled_draws": self.stalled_draws,
            "stall_time_s": self.stall_time_s,
            "hit_rate": self.hit_rate,
        }


class CorrelationPool:
    """Base pool: absolute-indexed stream of fixed-width numpy columns.

    Subclasses fix the column layout and hide it behind :meth:`take` /
    :meth:`append`, which speak the kind's typed batch.
    ``low_watermark`` is the produced-ahead level below which
    the pool asks the service for a refill; ``high_watermark`` is the
    level the service tops up to.
    """

    #: Nothing parks in a pool; benchmarks/ledger/fixture.py's teardown
    #: gate still reads this, and goes with it in the next benchmark PR.
    pending_segments = 0

    def __init__(
        self,
        name: str,
        n_columns: int,
        low_watermark: int = 0,
        high_watermark: int = None,
    ):
        self.name = name
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark if high_watermark is not None else max(
            low_watermark * 2, low_watermark + 1
        )
        self.stats = PoolStats()
        self.refill = threading.Event()
        self._columns = [None] * n_columns
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._produced = 0  # absolute count appended so far
        self._reserved = 0  # absolute count claimed so far
        self._produce_target = 0  # absolute produced-count floor
        self._base = 0  # absolute index of the first retained element
        self._done_upto = 0  # contiguous prefix fully taken
        self._pending_done: dict = {}  # lo -> hi of out-of-order takes
        self._closed = False
        #: Set by the service's pool factory: the production recipe that
        #: fills this pool and the key a keyed kind was created under.
        self.recipe = None
        self.key = ()
        #: Optional liveness hook (set by the service): called on every
        #: wait tick; raises a typed ServiceError when the producer died
        #: or degraded, so blocked consumers fail fast with the cause
        #: instead of burning their full timeout.
        self.failure_probe = None
        #: Flight-recorder hooks (set by the service): stalls emit a
        #: retroactive ``pool.wait`` span on the tracer and a duration
        #: sample (milliseconds) to the observer.  Both default to
        #: no-ops; the non-stalled fast path never touches them.
        self.tracer = NULL_TRACER
        self.stall_observer = None

    # -- levels -------------------------------------------------------------
    @property
    def produced(self) -> int:
        return self._produced

    @property
    def reserved(self) -> int:
        return self._reserved

    @property
    def level(self) -> int:
        """Produced-ahead margin; negative when demand outruns supply."""
        return self._produced - self._reserved

    @property
    def produce_target(self) -> int:
        return self._produce_target

    @property
    def deficit(self) -> int:
        """Items production should add: back to the high watermark, or
        out to the absolute produce target, whichever asks for more."""
        return max(
            0,
            self.high_watermark - self.level,
            self._produce_target - self._produced,
        )

    def needs_refill(self) -> bool:
        return (
            self.level < self.low_watermark
            or self._produced < self._produce_target
        )

    # -- producer side ------------------------------------------------------
    def _grow(self, i: int, arr: np.ndarray, used: int) -> None:
        """Amortized append: geometric capacity growth, copy-in-place.

        A naive per-refill np.concatenate would copy the whole retained
        buffer on every extend -- quadratic provisioning overhead at
        paper scale.
        """
        col = self._columns[i]
        need = used + arr.shape[0]
        if col is None or col.shape[0] < need:
            cap = max(need, 2 * (0 if col is None else col.shape[0]))
            fresh = np.empty((cap,) + arr.shape[1:], dtype=arr.dtype)
            if col is not None:
                fresh[:used] = col[:used]
            self._columns[i] = fresh
        self._columns[i][used:need] = arr

    def append_columns(self, arrays: tuple) -> int:
        """Append one production batch (equal-length column arrays) at
        the produced frontier; returns the absolute offset it landed at
        (what a shard leader announces to its follower)."""
        n = arrays[0].shape[0]
        if any(a.shape[0] != n for a in arrays):
            raise ServiceError(f"pool {self.name}: column lengths disagree")
        with self._cond:
            if self._closed:
                raise ServiceError(f"pool {self.name} is closed")
            lo = self._produced
            used = lo - self._base
            for i, arr in enumerate(arrays):
                self._grow(i, arr, used)
            self._produced += n
            self.stats.refills += 1
            self.stats.items_refilled += n
            self._cond.notify_all()
            return lo

    def rollback_to(self, produced: int) -> int:
        """Discard production past absolute position ``produced``.

        The reconnect resync path calls this after an interrupted
        command may have completed on one party only: both sides roll
        their pools back to the minimum of their produced counts so the
        absolute-index streams are mirrored again.  Items a consumer
        already took can never be rolled back -- that data has left the
        pool -- so a target below the taken frontier raises loudly
        (state is unrecoverable, not silently corrupt).  Returns the
        number of items discarded.
        """
        with self._cond:
            taken_hi = max(
                [self._done_upto] + list(self._pending_done.values())
            )
            if produced < taken_hi:
                raise ServiceError(
                    f"pool {self.name}: cannot roll back to {produced}; items "
                    f"up to {taken_hi} were already consumed"
                )
            if produced >= self._produced:
                return 0
            dropped = self._produced - produced
            # The column buffers need no physical shrink: the next
            # append overwrites from the new produced offset.
            self._produced = produced
            if self.needs_refill():
                self.refill.set()
            self._cond.notify_all()
            return dropped

    # -- prefill / waiting --------------------------------------------------
    def raise_watermarks(self, low: int = None, high: int = None) -> None:
        """Raise (never lower) the refill watermarks; used by prefill.

        Raising ``low`` to a planned demand makes the service keep that
        many items produced ahead of all reservations -- the
        preprocessing-phase contract.
        """
        with self._cond:
            if low is not None:
                self.low_watermark = max(self.low_watermark, low)
            if high is not None:
                self.high_watermark = max(
                    self.high_watermark, high, self.low_watermark
                )
            if self.needs_refill():
                self.refill.set()

    @property
    def watermarks(self) -> tuple:
        """(low, high) refill watermarks, e.g. to snapshot before a
        one-shot prefill raises them."""
        return (self.low_watermark, self.high_watermark)

    def set_watermarks(self, low: int, high: int = None) -> None:
        """Set (possibly LOWERING) the refill watermarks.

        The inverse of :meth:`raise_watermarks`: a one-shot
        preprocessing plan restores the pre-plan watermarks after its
        targets are met, so the steady-state service does not keep
        refilling to a demand that was consumed once and is gone.
        """
        with self._cond:
            self.low_watermark = low
            self.high_watermark = max(low, high if high is not None else low)
            if self.needs_refill():
                self.refill.set()

    def raise_produce_target(self, produced: int) -> None:
        """Ask production for an absolute produced-count floor.

        Unlike a watermark (a *level*: produced ahead of reservations,
        so consumer draws re-trigger refills forever), a produce target
        is an absolute position in the production stream: once
        ``self.produced`` reaches it, it is inert.  The pipelined
        preprocessing planner uses this to schedule exactly one layer's
        demand without leaving steady-state refill pressure behind.
        Never lowers an existing target.
        """
        with self._cond:
            if produced > self._produce_target:
                self._produce_target = produced
            if self.needs_refill():
                self.refill.set()

    def _note_stall(self, start: float, what: str) -> None:
        """Record a wait that actually blocked: a retroactive
        ``pool.wait`` span plus a duration sample for the stall
        histogram.  Called on success AND on timeout/close, so the
        timeline shows the waits that failed too."""
        dur = time.monotonic() - start
        if self.stall_observer is not None:
            self.stall_observer(self.name, dur * 1e3)
        tr = self.tracer
        if tr.enabled:
            end = tr.now()
            tr.complete(
                "pool.wait", end - dur, end, cat="stall", pool=self.name, what=what
            )

    def _wait(self, pred, timeout: float, what: str) -> None:
        if timeout is None:
            timeout = DEFAULT_WAIT_TIMEOUT_S
        deadline = time.monotonic() + timeout
        start = time.monotonic()
        waited = False
        try:
            with self._cond:
                while not pred() and not self._closed:
                    waited = True
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise PoolTimeout(
                            f"pool {self.name}: timed out waiting for {what} "
                            f"(produced {self._produced}, reserved {self._reserved})",
                            pool=self.name,
                            what=what,
                        )
                    if self.failure_probe is not None:
                        self.failure_probe()
                    self.refill.set()
                    self._cond.wait(min(remaining, 0.2))
                if not pred():
                    raise PoolClosed(
                        f"pool {self.name} closed while waiting for {what}",
                        pool=self.name,
                    )
        finally:
            if waited:
                self._note_stall(start, what)

    def wait_level(self, target: int, timeout: float = None) -> None:
        """Block until ``level`` (produced ahead of reserved) >= target."""
        self._wait(
            lambda: self._produced - self._reserved >= target, timeout,
            f"level {target}",
        )

    def wait_produced(self, target: int, timeout: float = None) -> None:
        """Block until the absolute produced count reaches ``target``."""
        self._wait(lambda: self._produced >= target, timeout, f"produced {target}")

    def wait_available(self, count: int, timeout: float = None) -> None:
        """Block until ``count`` items beyond everything already taken
        are produced.

        The follower-side prefill wait: a follower never reserves (its
        offsets arrive from the leader), so ``level`` cannot express
        "produced ahead" there -- but items already *taken* are known,
        and fresh production must clear them.  Measured from the call,
        so repeated prefills after consumption wait for new items
        instead of being satisfied by historical production.
        """
        with self._lock:
            base = self.stats.items_drawn
        self._wait(
            lambda: self._produced - base >= count, timeout,
            f"{count} fresh items",
        )

    # -- consumer side ------------------------------------------------------
    def reserve(self, n: int) -> int:
        """Claim the next range; returns its absolute start offset."""
        with self._lock:
            lo = self._reserved
            self._reserved += n
            if self.needs_refill():
                self.refill.set()
            return lo

    def try_reserve_produced(self, n: int) -> int:
        """Reserve only if the range is already fully produced, else None.

        The service worker uses this for internal consumption (triple /
        ROT production) so it never blocks itself waiting for extends it
        is the only one able to run.
        """
        with self._lock:
            if self._produced - self._reserved < n:
                return None
            lo = self._reserved
            self._reserved += n
            if self.needs_refill():
                self.refill.set()
            return lo

    def take_columns(self, lo: int, n: int, timeout: float = None) -> tuple:
        """Block until ``[lo, lo+n)`` is produced, then return its columns.

        A take of an already-produced range never waits (and never
        probes), so existing stock stays drawable after a close or while
        the service is degraded -- only waits for *future* production
        are subject to the liveness probe and the bounded timeout.
        """
        if timeout is None:
            timeout = DEFAULT_WAIT_TIMEOUT_S
        deadline = time.monotonic() + timeout
        start = time.monotonic()
        stalled = False
        try:
            with self._cond:
                while self._produced < lo + n and not self._closed:
                    stalled = True
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.stats.stall_time_s += time.monotonic() - start
                        raise PoolTimeout(
                            f"pool {self.name}: timed out waiting for "
                            f"[{lo}, {lo + n}) (produced {self._produced})",
                            pool=self.name,
                            what=f"[{lo}, {lo + n})",
                        )
                    if self.failure_probe is not None:
                        self.failure_probe()
                    self.refill.set()
                    self._cond.wait(timeout=min(remaining, 0.2))
                if self._produced < lo + n:  # closed before the range arrived
                    raise PoolClosed(
                        f"pool {self.name} closed while waiting for "
                        f"[{lo}, {lo + n})",
                        pool=self.name,
                    )
                if lo < self._base:
                    raise ServiceError(
                        f"pool {self.name}: range [{lo}, {lo + n}) already trimmed"
                    )
                sl = slice(lo - self._base, lo - self._base + n)
                out = tuple(col[sl].copy() for col in self._columns)
                self._mark_done(lo, lo + n)
                self.stats.draws += 1
                self.stats.items_drawn += n
                if stalled:
                    self.stats.stalled_draws += 1
                    self.stats.stall_time_s += time.monotonic() - start
                return out
        finally:
            if stalled:
                self._note_stall(start, f"take [{lo}, {lo + n})")

    def _mark_done(self, lo: int, hi: int) -> None:
        """Advance the contiguous-done frontier; compact the buffers once
        the done prefix holds ``TRIM_BYTES``.  The live tail moves to the
        front of the same buffers (takers hold copies, never views), so a
        consumed item is overwritten by the appends that follow instead of
        pinning its buffer, and capacity stays near the live high-water."""
        self._pending_done[lo] = hi
        while self._done_upto in self._pending_done:
            self._done_upto = self._pending_done.pop(self._done_upto)
        cut = self._done_upto - self._base
        if cut * sum(col[0].nbytes for col in self._columns) >= TRIM_BYTES:
            keep = self._produced - self._done_upto
            for col in self._columns:
                col[:keep] = col[cut : cut + keep]
            self._base = self._done_upto

    def take(self, lo: int, n: int, timeout: float = None):
        """:meth:`take_columns` as this kind's typed batch."""
        return self.take_columns(lo, n, timeout)

    def append(self, batch) -> None:
        """Append one production batch given as this kind's typed batch."""
        self.append_columns(batch)

    def close(self) -> None:
        """Wake all blocked takers with an error (service shutdown)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class SenderCotPool(CorrelationPool):
    """This party's sender-role COTs (holds the direction's Delta)."""

    def __init__(self, name: str, delta: np.ndarray, **kwargs):
        super().__init__(name, n_columns=1, **kwargs)
        self.delta = delta

    def append(self, batch: CotSenderBatch) -> None:
        self.append_columns((batch.z,))

    def take(self, lo: int, n: int, timeout: float = None) -> CotSenderBatch:
        (z,) = self.take_columns(lo, n, timeout)
        return CotSenderBatch(self.delta, z)


class ReceiverCotPool(CorrelationPool):
    """This party's receiver-role COTs (choice bits + blocks)."""

    def __init__(self, name: str, **kwargs):
        super().__init__(name, n_columns=2, **kwargs)

    def append(self, batch: CotReceiverBatch) -> None:
        self.append_columns((batch.x, batch.y))

    def take(self, lo: int, n: int, timeout: float = None) -> CotReceiverBatch:
        x, y = self.take_columns(lo, n, timeout)
        return CotReceiverBatch(x, y)


class TriplePool(CorrelationPool):
    """Beaver bit-triple shares (a, b, c)."""

    def __init__(self, name: str, **kwargs):
        super().__init__(name, n_columns=3, **kwargs)

    def append(self, triples) -> None:
        self.append_columns((triples.a, triples.b, triples.c))

    def take(self, lo: int, n: int, timeout: float = None):
        a, b, c = self.take_columns(lo, n, timeout)
        return BitTriples(a, b, c)


class RingTriplePool(CorrelationPool):
    """Arithmetic (mod 2^bits) Beaver-triple shares (a, b, c)."""

    def __init__(self, name: str, bits: int, **kwargs):
        super().__init__(name, n_columns=3, **kwargs)
        self.bits = bits

    def append(self, triples) -> None:
        self.append_columns((triples.a, triples.b, triples.c))

    def take(self, lo: int, n: int, timeout: float = None):
        a, b, c = self.take_columns(lo, n, timeout)
        return RingTriples(a, b, c, self.bits)


class TruncPairPool(CorrelationPool):
    """Fixed-point truncation pairs (r, r >> frac) for one frac width.

    One pool item is one pair of mod-2^bits shares; pools are keyed by
    the fractional width (``tprc/{frac}``) because a pair only rescales
    by its own shift amount, while ``bits`` is fixed service-wide like
    every other arithmetic pool.  Same absolute-index reserve/take and
    watermark-refill semantics as RTRI/MTRI; the ``TPRC`` recipe
    produces batches from forward-direction COTs plus pooled bit
    triples (the two millionaires' comparisons inside generation).
    """

    def __init__(self, name: str, bits: int, frac_bits: int, **kwargs):
        super().__init__(name, n_columns=2, **kwargs)
        self.bits = bits
        self.frac_bits = frac_bits

    @staticmethod
    def key_for(frac_bits: int) -> str:
        return f"tprc/{frac_bits}"

    def append(self, pairs) -> None:
        self.append_columns((pairs.r, pairs.s))

    def take(self, lo: int, n: int, timeout: float = None):
        r, s = self.take_columns(lo, n, timeout)
        return TruncPairs(r, s, self.bits, self.frac_bits)


class MatrixTriplePool(CorrelationPool):
    """Shape-keyed matrix Beaver triples for one fixed (m, k, n).

    One pool item is one whole triple (A, B, C = A@B), stored as three
    flattened row-columns, so the absolute-index reserve/take semantics
    and watermark refill work unchanged: ``reserve(1)`` claims the next
    triple of this shape, the service produces ``deficit`` more.  The
    preprocessing planner keys its matrix-triple demand by the same
    :meth:`key_for` string.
    """

    def __init__(self, name: str, m: int, k: int, n: int, bits: int, **kwargs):
        super().__init__(name, n_columns=3, **kwargs)
        self.m, self.k, self.n = m, k, n
        self.bits = bits

    @staticmethod
    def key_for(m: int, k: int, n: int) -> str:
        return f"mtri/{m}x{k}x{n}"

    def append(self, triple) -> None:
        self.append_columns(
            (
                triple.a.reshape(1, self.m * self.k),
                triple.b.reshape(1, self.k * self.n),
                triple.c.reshape(1, self.m * self.n),
            )
        )

    def take(self, lo: int, n: int = 1, timeout: float = None):
        if n != 1:
            raise ServiceError(f"pool {self.name}: one matrix triple per take")
        a, b, c = self.take_columns(lo, 1, timeout)
        return MatrixTriples(
            a.reshape(self.m, self.k),
            b.reshape(self.k, self.n),
            c.reshape(self.m, self.n),
            self.bits,
        )
