"""Unified metrics registry: histograms and collectors.

The runtime grew six disjoint stats surfaces (``PoolStats``,
``ExtendStats``, ``ChannelStats``, ``FaultStats``, ``stats_by_tag``,
``session_draws``); this module gives them one read side.  Two kinds of
sources register here:

* **Histograms** (:class:`Histogram`) own their storage and are written
  directly by instrumented code -- the per-pool stall-duration
  histogram the service feeds from ``CorrelationPool.stall_observer``.
* **Collectors** are ``(prefix, fn)`` callbacks returning a flat
  ``name -> value`` dict read at snapshot time.  The existing stats
  classes stay the storage (their hot paths are untouched); the
  service registers one collector per surface, so
  ``service.telemetry()`` is a single :meth:`MetricsRegistry.snapshot`.

Lock discipline: the registry lock guards only registration.  A
histogram observe takes one tiny per-histogram lock; collector reads
take none -- they read monotonic ints the GIL already keeps coherent.
"""

from __future__ import annotations

import threading

#: Default stall-duration bucket upper bounds, in milliseconds.  Spans
#: "scheduler hiccup" (1 ms) through "an extend ran under you" (100s of
#: ms) to "the producer was down" (multi-second); +inf is implicit.
DEFAULT_STALL_BUCKETS_MS = (1.0, 5.0, 20.0, 100.0, 500.0, 2000.0)


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds.

    An observation ``v`` lands in the first bucket with ``v <= le``
    (prometheus-style edges: observing exactly a bound counts into that
    bound's bucket); anything past the last bound lands in the implicit
    ``inf`` bucket.  ``value`` flattens to a numeric dict (``count``,
    ``sum``, one ``le_<bound>`` per bucket).
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_count", "_sum")

    def __init__(self, name: str, bounds=DEFAULT_STALL_BUCKETS_MS):
        self.name = name
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError(f"histogram {name}: needs at least one bucket bound")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0

    def observe(self, v: float) -> None:
        i = len(self.bounds)
        for j, bound in enumerate(self.bounds):
            if v <= bound:
                i = j
                break
        with self._lock:
            self._counts[i] += 1
            self._count += 1
            self._sum += v

    @property
    def value(self) -> dict:
        with self._lock:
            out = {"count": self._count, "sum": self._sum}
            for bound, c in zip(self.bounds, self._counts):
                out[f"le_{bound:g}"] = c
            out["le_inf"] = self._counts[-1]
        return out


class MetricsRegistry:
    """One read surface over histograms and collector callbacks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._histograms: dict = {}
        self._collectors: list = []  # (prefix, fn)

    def histogram(self, name: str, bounds=DEFAULT_STALL_BUCKETS_MS) -> Histogram:
        """The histogram registered as ``name``, created on first use."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, bounds)
            return self._histograms[name]

    def add_collector(self, prefix: str, fn) -> None:
        """Register a callback returning a flat ``name -> value`` dict;
        its entries appear in snapshots as ``<prefix>/<name>``."""
        with self._lock:
            self._collectors.append((prefix, fn))

    def snapshot(self) -> dict:
        """One coherent ``name -> value`` view of every source."""
        with self._lock:
            histograms = list(self._histograms.values())
            collectors = list(self._collectors)
        out = {}
        for hist in histograms:
            out[hist.name] = hist.value
        for prefix, fn in collectors:
            for key, value in fn().items():
                out[f"{prefix}/{key}"] = value
        return out
