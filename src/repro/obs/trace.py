"""Span/event tracing with party + thread lanes.

A :class:`Tracer` records structured events -- B/E spans, instants,
counter samples -- into an in-memory list, stamping each with the
injected clock and the emitting thread.  One tracer per party; the
party index becomes the Perfetto process lane and each thread its own
track, so a two-party timeline shows the leader's scheduler, both mux
pumps, the threads that drive preprocessing pipelines and every online
session thread as parallel lanes (see :mod:`repro.obs.export`).

**Disabled-by-default contract.**  Every instrumented object in the
runtime holds :data:`NULL_TRACER` until something attaches a real
tracer (``CorrelationService.set_tracer``).  Hot paths guard event
emission with ``if tracer.enabled:`` -- with the null tracer that is
one attribute load and a falsy branch, no argument packing, no
allocation (asserted by the test suite) -- so tracing costs nothing
unless explicitly requested, and <5% on the warm online path when
enabled (gated by ``benchmarks/bench_obs.py`` in CI).

Stalls are only known at wait *end*; :meth:`Tracer.complete` records a
retroactive span with explicit timestamps as a Chrome ``X`` (complete)
event, which -- unlike a B/E pair -- stays valid even when the interval
straddles live span boundaries on the same thread.
"""

from __future__ import annotations

import threading
import time


class _NullSpan:
    """Shared no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Does nothing, cheaply.  ``enabled`` is False so instrumented hot
    paths can skip event construction entirely; calling the methods
    anyway is also safe (and ``span`` always hands back the same
    singleton context manager)."""

    enabled = False
    party = None

    def span(self, *args, **kwargs):
        return _NULL_SPAN

    def instant(self, *args, **kwargs):
        pass

    def counter(self, *args, **kwargs):
        pass

    def begin(self, *args, **kwargs):
        pass

    def end(self, *args, **kwargs):
        pass

    def complete(self, *args, **kwargs):
        pass

    def now(self) -> float:
        return 0.0


#: The default tracer everywhere: attach a real one to opt in.
NULL_TRACER = NullTracer()


class _Span:
    """Context manager emitting a B event on enter, E on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_args")

    def __init__(self, tracer, name, cat, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self):
        self._tracer._emit("B", self._name, self._cat, self._tracer.now(), self._args)
        return self

    def __exit__(self, *exc):
        self._tracer._emit("E", self._name, self._cat, self._tracer.now(), None)
        return False


class Tracer:
    """Records events for one party's half of the runtime.

    Args:
        party: lane index (0 = leader, 1 = follower); becomes the
            Chrome-trace ``pid``.
        clock: zero-argument callable returning seconds; injected so
            tests drive deterministic timestamps.  All events from
            tracers merged into one export must share a clock domain
            (the default, ``time.perf_counter``, does across threads
            and parties in one process).
    """

    enabled = True

    def __init__(self, party: int = 0, clock=time.perf_counter):
        self.party = party
        self.clock = clock
        #: Raw event dicts: ph / name / cat / ts (clock units) / tid / args.
        self.events: list = []
        #: First-seen name per thread ident, for export lane labels.
        self.thread_names: dict = {}

    def now(self) -> float:
        return self.clock()

    def _emit(self, ph, name, cat, ts, args, tid=None) -> None:
        if tid is None:
            tid = threading.get_ident()
            if tid not in self.thread_names:
                self.thread_names[tid] = threading.current_thread().name
        self.events.append(
            {"ph": ph, "name": name, "cat": cat, "ts": ts, "tid": tid, "args": args}
        )

    # -- recording -----------------------------------------------------------
    def span(self, name: str, cat: str = "", **args) -> _Span:
        """``with tracer.span("online.layer", layer=2): ...``"""
        return _Span(self, name, cat, args or None)

    def begin(self, name: str, cat: str = "", **args) -> None:
        self._emit("B", name, cat, self.clock(), args or None)

    def end(self, name: str, cat: str = "") -> None:
        self._emit("E", name, cat, self.clock(), None)

    def instant(self, name: str, cat: str = "", **args) -> None:
        self._emit("i", name, cat, self.clock(), args or None)

    def counter(self, name: str, cat: str = "", **values) -> None:
        """A sampled numeric series (Perfetto renders a step chart)."""
        self._emit("C", name, cat, self.clock(), values)

    def complete(
        self, name: str, start_ts: float, end_ts: float, cat: str = "", **args
    ) -> None:
        """A retroactive span at explicit clock values (Chrome ``X`` event).

        The recorder for durations only known after the fact (a pool
        wait that turned out to stall, a recovery that just healed):
        measure, then emit ``complete(name, end - dur, end)``.  Emitted
        as a single complete event rather than a B/E pair because a
        retroactive interval may straddle the boundaries of live spans
        on the same thread, which would break B/E nesting.
        """
        if end_ts < start_ts:
            start_ts = end_ts
        tid = threading.get_ident()
        if tid not in self.thread_names:
            self.thread_names[tid] = threading.current_thread().name
        self.events.append(
            {
                "ph": "X",
                "name": name,
                "cat": cat,
                "ts": start_ts,
                "dur": end_ts - start_ts,
                "tid": tid,
                "args": args or None,
            }
        )
