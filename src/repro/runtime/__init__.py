"""Correlation provisioning runtime: pools, service, multiplexing.

This package turns the one-shot ``ferret_pair`` demo into a long-lived
producer/consumer system (the deployment shape the paper's Figure 1(b)
amortization argument assumes):

* :mod:`repro.runtime.pool` -- thread-safe typed correlation pools with
  watermark refill, backpressure, and per-pool statistics;
* :mod:`repro.runtime.recipes` -- the declarative table of production
  ops (extends, bit/ring/matrix triples, truncation pairs, random
  OTs): what each consumes, how it is commanded, made and pooled;
* :mod:`repro.runtime.service` -- a per-party background worker that
  keeps the pools filled by scheduling and running those recipes, with
  deterministic leader-side allocation so the two parties' draws stay
  correlated, plus ``prefill`` for planner-driven preprocessing;
* :mod:`repro.runtime.mux` -- tagged sub-channel multiplexing so the
  provisioning traffic and any number of consumer sessions share one
  duplex link (in-memory or a real socket).

Fault tolerance rides below and through these layers: a
:class:`repro.ot.reconnect.ReconnectingChannel` heals transport loss
under the mux, the mux heartbeat detects silent peer death, and the
service degrades (stock still drawable, typed
:class:`repro.errors.ServiceDegraded` backpressure) when production is
down past the retry budget.
"""

from repro.runtime.daemon import (
    DaemonConfig,
    DaemonRequest,
    InferenceDaemon,
    Lease,
    compile_ops,
    run_online,
)
from repro.runtime.mux import MuxChannel, SubChannel
from repro.runtime.pool import (
    DEFAULT_WAIT_TIMEOUT_S,
    CorrelationPool,
    MatrixTriplePool,
    PoolStats,
    ReceiverCotPool,
    RingTriplePool,
    SenderCotPool,
    TriplePool,
    TruncPairPool,
)
from repro.runtime.service import CorrelationService, ServiceSession, ServiceTuning

__all__ = [
    "CorrelationPool",
    "CorrelationService",
    "DEFAULT_WAIT_TIMEOUT_S",
    "DaemonConfig",
    "DaemonRequest",
    "InferenceDaemon",
    "Lease",
    "MatrixTriplePool",
    "MuxChannel",
    "PoolStats",
    "ReceiverCotPool",
    "RingTriplePool",
    "SenderCotPool",
    "ServiceSession",
    "ServiceTuning",
    "SubChannel",
    "TriplePool",
    "TruncPairPool",
    "compile_ops",
    "run_online",
]
