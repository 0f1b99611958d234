"""Flight recorder for the correlation runtime.

Two complementary surfaces, both disabled-by-default on the hot path:

* :mod:`repro.obs.metrics` -- a lock-cheap :class:`MetricsRegistry`
  unifying the runtime's stats classes (pool levels, per-tag mux
  bytes, ferret extends, retry/degraded/journal accounting) into one
  coherent ``service.telemetry()`` snapshot.
* :mod:`repro.obs.trace` -- a :class:`Tracer` recording structured
  spans and instant events (prefill layers, online compute, pool
  stalls, production commands, redials, resync barriers, heartbeats)
  with thread + party lanes, exportable as Chrome-trace/Perfetto JSON
  via :mod:`repro.obs.export` and rendered into stall-attribution
  tables by ``python -m repro.obs.report``.
"""

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
