"""The background correlation provisioning service.

One :class:`CorrelationService` runs per party.  It owns up to two
Ferret endpoints -- the *forward* direction (party 0 is the COT sender)
and the *reverse* direction (party 1 is the sender), because every
role-switching workload (bit triples, the ReLU multiplexer) needs OTs
both ways -- and a worker thread that keeps typed pools above their
low watermarks by running ``extend()`` and derived production while
consumers draw.  This is the Figure 1(b) amortization realized as a
long-lived runtime: the base-COT Init (128 PKC OTs) runs once per direction,
then extends stream correlations to any number of sessions.

**Determinism.**  A correlation only works if both parties consume the
same one, so all allocation decisions are made on party 0 (the
*leader*) and propagated in-band:

* consumer draws: a session draws an ordered list of ``(pool kind,
  key, count)`` -- what the consuming verb's ``*_draws`` function
  declares -- through the one :meth:`ServiceSession.draw`: party 0
  reserves every absolute range in list order and sends all offsets to
  its peer session in one message over the session sub-channel.  The
  service knows pool kinds only through the recipe table, never what a
  verb is;
* production: every op -- the two extends and each derived kind -- is
  one entry of the recipe table (:mod:`repro.runtime.recipes`), which
  states its opcode, frame layout, pool, input pools and per-item
  counts, batch cap and generator.  The code here is generic over it:
  the leader's scheduler walks the table in priority order, reserves
  the inputs of the first pool that asks for a refill, and sends one
  command frame on the ``prov/ctl`` sub-channel naming the op, the item
  count and the exact input ranges; both workers execute it the same
  way (take the inputs, generate, append), the follower replaying
  commands in order.

Thread interleaving on either host therefore cannot desynchronize the
two parties: the command stream and the per-session offset streams are
the only sources of truth.

**Liveness.**  The leader only schedules derived production over
ranges that are already produced (``try_reserve_produced``), and a kind
whose inputs are short gets a batch of that input's own recipe -- at
the bottom an extend -- scheduled in its place, so the worker never
blocks waiting on production that the worker itself would have to run.
Consumer draws may over-reserve freely; the resulting negative pool
level is exactly the demand signal the leader tops up.
"""

from __future__ import annotations

import json
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ServiceDegraded,
    ServiceError,
)
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.ot.retry import RetryingChannel, RetryPolicy
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot
from repro.runtime.mux import MuxChannel
from repro.runtime.pool import MatrixTriplePool, TruncPairPool
from repro.runtime.recipes import BY_KIND, BY_OP, MTRI, RECIPES, TPRC, Command, sends
from repro.runtime.shard import ShardManager

#: Control frames open with a 4-byte opcode.  Production ops and their
#: frame layouts are the recipe table's; STOP keeps the commonest
#: layout's three (unused) u64 arguments.
OP_STOP = b"STOP"
_STOP_FRAME = struct.pack("<4sQQQ", OP_STOP, 0, 0, 0)
#: Resync frames (variable length: opcode + JSON payload).  SYNC is the
#: leader's recovery barrier, SACK the follower's reply, NACK the
#: follower's prompt "my command execution failed" signal.
OP_SYNC = b"SYNC"
OP_SYNC_ACK = b"SACK"
OP_NACK = b"NACK"

#: Transient transport faults the worker survives by degrading (and
#: later resyncing) instead of dying.
_TRANSIENT = (ChannelClosed, ChannelTimeout)

#: How long an idle leader sleeps between scheduling passes when no
#: pool wakes it.
POLL_INTERVAL_S = 0.02
#: How often a degraded worker attempts a resync barrier.
DEGRADED_RETRY_S = 0.5
#: How many times a worker whose loop died on a transient transport
#: fault is restarted before the error becomes fatal.
MAX_WORKER_RESTARTS = 1


class _StopRequested(Exception):
    """Internal: a liveness probe noticed the stop flag mid-wait."""


@dataclass
class ServiceTuning:
    """Watermarks and batch sizes for the provisioning worker.

    ``None`` watermarks are derived from the Ferret config at service
    construction (keep about one extend's output in flight).
    ``ring_bits`` fixes the ring Z_2^bits of every arithmetic (ring and
    matrix) triple the service produces -- both parties must agree, and
    preprocessing plans must be computed at the same width.
    ``enable_ring_triples=None`` follows ``enable_reverse`` (ring
    triples, like bit triples, need OTs both ways).
    ``tprc_batch_chunks`` caps how many ``tprc_chunk``-sized batches
    one TPRC command may fuse when stock allows: pair generation pays
    its millionaires'/B2A message rounds once per command, so fusing
    chunks amortizes the per-chunk opening rounds of deep deficits.
    ``shards`` moves raw-COT production into that many producer
    *process pairs* (see :mod:`repro.runtime.shard`); 1 keeps today's
    in-thread extends byte-identically.  Derived ``None`` COT
    watermarks scale with the shard count so every shard can keep one
    extend's output in flight.
    """

    cot_low: int = None
    cot_high: int = None
    shards: int = 1
    triple_low: int = 128
    triple_high: int = 1024
    triple_chunk: int = 1024
    ring_bits: int = 32
    rtri_chunk: int = 256
    tprc_chunk: int = 64
    tprc_batch_chunks: int = 8
    rot_low: int = 0
    rot_high: int = 512
    enable_reverse: bool = True
    enable_triples: bool = True
    enable_ring_triples: bool = None
    enable_rots: bool = True
    take_timeout_s: float = 300.0
    #: Retry/backoff bounds for the worker's blocking receives (sliced
    #: waits that re-check liveness) and, when the transport stack
    #: includes a ReconnectingChannel, its redial loop.
    retry: RetryPolicy = field(default_factory=RetryPolicy)


class CorrelationService:
    """Pooled Ferret provisioning for one party.

    Args:
        party: 0 (leader / allocation authority) or 1 (follower).
        mux: this party's :class:`MuxChannel` endpoint; the service
            claims the ``prov/*`` sub-channels and hands sessions
            ``sess/<name>`` sub-channels.
        config: the Ferret configuration (shared by both directions).
        tuning: watermarks / batch sizes; both parties should pass
            equal ``enable_*`` flags.
        seed: base seed for the Ferret endpoints; both parties must
            pass the same value (they derive distinct per-role seeds
            from it, mirroring :func:`repro.ferret.protocol.ferret_pair`).
    """

    def __init__(
        self,
        party: int,
        mux: MuxChannel,
        config: FerretConfig,
        tuning: ServiceTuning = None,
        seed: int = 0x10C,
    ):
        if party not in (0, 1):
            raise ServiceError("party must be 0 or 1")
        self.party = party
        self.mux = mux
        self.config = config
        self.tuning = tuning or ServiceTuning()
        self._ctl = mux.sub("prov/ctl")
        # Provisioning data channels (one per interactive recipe) wait in
        # policy-sized slices with a liveness probe between slices, so a
        # worker blocked mid-protocol notices a stop request or a dead
        # pump in ~attempt_timeout_s instead of after the full
        # (mux-default) receive timeout.
        self._data = {
            recipe.tag: RetryingChannel(
                mux.sub(recipe.tag), self.tuning.retry,
                probe=self._worker_probe, default_timeout=mux.timeout,
            )
            for recipe in RECIPES
            if recipe.tag is not None
        }
        self._data_channels = tuple(self._data.values())
        self._rng = np.random.default_rng(seed + 0x7000 + party)

        # Ferret endpoints, per-role seeds seed .. seed + 3.
        def endpoint(direction: str, offset: int):
            role = FerretSender if sends(party, direction) else FerretReceiver
            return role(config, seed=seed + offset + party)

        self.ferret_fwd = endpoint("fwd", 0)
        self.ferret_rev = endpoint("rev", 2) if self.tuning.enable_reverse else None

        # One wake event shared by every pool: any demand pulse (a
        # reserve dipping below the low watermark, a blocked take)
        # nudges the leader's scheduling loop.
        self._wake = threading.Event()

        # Flight recorder: one registry unifying every stats surface
        # (pools, mux tags, ferret extends, retry/degraded/reconnect
        # accounting, session draws) behind :meth:`telemetry`, plus a
        # tracer (no-op until :meth:`set_tracer`) for the timeline.
        self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()
        self._stall_hist = self.metrics.histogram("pool/stall_ms")
        self.metrics.add_collector("pool", self._collect_pools)
        self.metrics.add_collector("mux", self._collect_mux)
        self.metrics.add_collector("ferret", self._collect_ferret)
        self.metrics.add_collector("service", self._collect_service)
        self.metrics.add_collector("reconnect", self._collect_reconnect)
        self.metrics.add_collector("draws", self.session_draw_counts)

        t = self.tuning
        if t.shards < 1:
            raise ServiceError("shards must be >= 1")
        # Shard-aware defaults: with N producer shards, keep N extends'
        # worth of output in flight so no shard idles against a full pool.
        self._cot_marks = {
            "low_watermark": (
                t.cot_low if t.cot_low is not None
                else max(1, config.net_output * t.shards // 4)
            ),
            "high_watermark": (
                t.cot_high if t.cot_high is not None
                else config.net_output * t.shards
            ),
        }
        self._alloc_lock = threading.Lock()
        #: Set (under the allocation lock) once the worker has exited:
        #: the pool factory hands out pools created later already closed.
        self._worker_done = False
        self.pools: dict = {}
        # The keyless kinds this configuration switches on; the factory
        # rejects one whose input pools are off (triples without the
        # reverse direction).  Keyed pools are created on first use.
        for recipe in RECIPES:
            if recipe.on is not None and recipe.on(t):
                self._pool(recipe)

        # Process-sharded raw-COT production (repro.runtime.shard):
        # shards=1 constructs none of the machinery, keeping the
        # single-worker stream byte-identical.
        self._shard_mgr = None
        if t.shards > 1:
            self._shard_mgr = ShardManager(self, t.shards, seed=seed)
            self.metrics.add_collector("shard", self._shard_mgr.collect)

        #: Leader-side per-kind totals of consumer (session) draws --
        #: what the preprocessing planner's demand is validated against.
        self.session_draws: dict = {}
        self._stop = threading.Event()
        self._ready = threading.Event()
        self.error = None
        self.extends = {"fwd": 0, "rev": 0}
        # Degraded-mode + recovery state (tentpole 3).
        self.degraded_since = None  # time.monotonic() at entry, or None
        self.degraded_cause = None
        self.degraded_events = 0
        self.worker_restarts = 0
        self.resyncs = 0  # successful resync barriers
        self.rolled_back = 0  # pool items discarded by resyncs
        self._sync_nonce = 0
        self._nack_sent = False
        #: Last completed extend per direction: (endpoint snapshot taken
        #: before the extend, pool produced count before its append).  A
        #: resync that rolls a COT pool back to that count also restores
        #: the endpoint, so the re-run extend starts from matching state.
        self._last_extend = {"fwd": None, "rev": None}
        self._worker = threading.Thread(
            target=self._run, name=f"corr-service-p{party}", daemon=True
        )
        self._started = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "CorrelationService":
        self._worker.start()
        self._started = True
        return self

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until base-OT setup finished on this side."""
        if not self._ready.wait(timeout):
            self._raise_if_failed()
            raise ServiceError("service setup did not finish in time")
        self._raise_if_failed()

    def stop(self, timeout: float = 30.0) -> None:
        """Shut the worker down.

        The leader (party 0) broadcasts STOP to the peer, so stop the
        leader first (or concurrently).  The follower's stop() waits for
        that STOP to arrive before forcing its loop to exit, so a
        follower stopped "too early" keeps replaying commands instead of
        wedging the leader mid-protocol.
        """
        if self.party == 0:
            self._stop.set()
            self._wake.set()
            if self._started:
                self._worker.join(timeout)
        elif self._started:
            if self.degraded_since is not None or self.mux._pump_dead:
                # The command stream is down: the leader's STOP can
                # never arrive, so skip the grace join and force the
                # loop out now.
                self._stop.set()
                self._worker.join(5.0)
            else:
                # Give the leader's STOP a chance to arrive and drain
                # the command stream cleanly; force the loop only as a
                # fallback.
                self._worker.join(timeout)
                if self._worker.is_alive():
                    self._stop.set()
                    self._worker.join(5.0)
        else:
            self._stop.set()
        self._raise_if_failed()

    def _raise_if_failed(self) -> None:
        if self.error is not None:
            raise ServiceError(f"service worker failed: {self.error!r}") from self.error

    # -- liveness / degraded mode -------------------------------------------
    @property
    def degraded(self) -> bool:
        return self.degraded_since is not None

    def _worker_probe(self) -> None:
        """Between-slice liveness check for the worker's own receives."""
        if self._stop.is_set():
            raise _StopRequested("service stop requested")
        self.mux._check_pump()

    def _pool_probe(self) -> None:
        """Per-tick liveness check for consumers blocked on a pool.

        Only waits for *future* production reach this (already-produced
        takes never wait), so raising here is exactly the ISSUE's
        degraded-mode contract: stock still serves, but backpressure on
        a dead producer surfaces as a typed error with recovery hints
        instead of a hang.
        """
        self._raise_if_failed()
        if self.degraded_since is not None:
            raise ServiceDegraded(
                f"service is degraded (production down for "
                f"{time.monotonic() - self.degraded_since:.1f}s: "
                f"{self.degraded_cause!r}); this wait needs future production",
                cause=self.degraded_cause,
                since=self.degraded_since,
            )

    def _enter_degraded(self, exc: Exception) -> None:
        if self.degraded_since is None:
            self.degraded_since = time.monotonic()
            self.degraded_cause = exc
            self.degraded_events += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "degraded.enter", cat="degraded", cause=repr(exc)[:200]
                )

    def _clear_degraded(self) -> None:
        was_degraded = self.degraded_since is not None
        self.degraded_since = None
        self.degraded_cause = None
        self._nack_sent = False
        if was_degraded and self.tracer.enabled:
            self.tracer.instant("degraded.clear", cat="degraded")

    def retry_stats(self) -> dict:
        """Recovery accounting: retried receive slices, degraded spells,
        resync barriers, and (when the transport stack reconnects)
        redial/replay totals from the ReconnectingChannel underneath --
        the ``service/`` and ``reconnect/`` telemetry in one dict, plus
        the reconnect event log."""
        out = {**self._collect_service(), **self._collect_reconnect()}
        if "reconnects" in out:
            out["reconnect_events"] = list(self.mux.base.reconnect_events)
        return out

    # -- flight recorder ------------------------------------------------------
    def _observe_stall(self, pool_name: str, dur_ms: float) -> None:
        self._stall_hist.observe(dur_ms)

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to this party's whole stack: the service, every
        pool (current and future), the mux, the retrying data channels,
        and -- when the transport reconnects -- the ReconnectingChannel
        underneath.  Pass :data:`repro.obs.trace.NULL_TRACER` to detach."""
        self.tracer = tracer
        with self._alloc_lock:
            pools = list(self.pools.values())
        for pool in pools:
            pool.tracer = tracer
        for ch in self._data_channels:
            ch.tracer = tracer
        self.mux.tracer = tracer
        base = getattr(self.mux, "base", None)
        if base is not None and hasattr(base, "reconnect_events"):
            base.tracer = tracer

    def telemetry(self) -> dict:
        """One coherent snapshot of every stats surface, flat-keyed:
        ``pool/<kind>/...``, ``mux/<tag>/...``, ``ferret/<dir>/...``,
        ``service/...``, ``reconnect/...``, ``draws/<kind>`` plus the
        ``pool/stall_ms`` histogram.  Pure read; see
        ``metrics.snapshot_delta()`` for periodic deltas."""
        return self.metrics.snapshot()

    def session_draw_counts(self) -> dict:
        """Consistent snapshot of leader-side per-kind session draws
        (the mutations happen under the same allocation lock)."""
        with self._alloc_lock:
            return dict(self.session_draws)

    def pool_stats(self) -> dict:
        """Per pool kind: its draw/refill counters plus live levels."""
        with self._alloc_lock:
            pools = list(self.pools.items())
        out = {}
        for kind, pool in pools:
            stats = pool.stats.as_dict()
            stats["level"] = pool.level
            stats["produced"] = pool.produced
            stats["deficit"] = pool.deficit
            stats["low_watermark"], stats["high_watermark"] = pool.watermarks
            out[kind] = stats
        return out

    def _collect_pools(self) -> dict:
        return {
            f"{kind}/{key}": value
            for kind, stats in self.pool_stats().items()
            for key, value in stats.items()
        }

    def _collect_mux(self) -> dict:
        out = {}
        frames = self.mux.receive_counts()
        for tag, stats in self.mux.stats_by_tag().items():
            for key, value in stats.as_dict().items():
                out[f"{tag}/{key}"] = value
            out[f"{tag}/rx_frames"] = frames.get(tag, 0)
        return out

    def _collect_ferret(self) -> dict:
        out = {}
        for direction in ("fwd", "rev"):
            ep = self._endpoint(direction)
            if ep is None:
                continue
            out[f"{direction}/extends"] = self.extends[direction]
            out[f"{direction}/iterations"] = ep.iterations
            last = ep.last_stats
            if last is not None:
                out[f"{direction}/last_n_output"] = last.n_output
                out[f"{direction}/last_prg_calls"] = last.prg_calls
                out[f"{direction}/last_bytes_sent"] = last.bytes_sent
                out[f"{direction}/last_rounds"] = last.rounds
        return out

    def _collect_service(self) -> dict:
        return {
            "stalled_recvs": sum(c.stalled_recvs for c in self._data_channels),
            "retry_slices": sum(c.retry_slices for c in self._data_channels),
            "degraded": int(self.degraded_since is not None),
            "degraded_events": self.degraded_events,
            "worker_restarts": self.worker_restarts,
            "resyncs": self.resyncs,
            "rolled_back": self.rolled_back,
        }

    def _collect_reconnect(self) -> dict:
        base = getattr(self.mux, "base", None)
        if base is None or not hasattr(base, "reconnect_events"):
            return {}
        return {
            "reconnects": base.reconnects,
            "epoch": base.epoch,
            "replayed_frames": base.replayed_frames,
            "replayed_bytes": base.replayed_bytes,
            "journal_depth": base.journal_depth,
        }

    def resume_state(self) -> dict:
        """The JSON state this party contributes to a reconnect resume
        handshake: per-tag mux receive counts plus per-pool absolute
        stream positions (wire a ReconnectingChannel's
        ``state_provider`` to this)."""
        with self._alloc_lock:
            pools = {kind: pool.produced for kind, pool in self.pools.items()}
        return {
            "party": self.party,
            "tags": self.mux.receive_counts(),
            "pools": pools,
        }

    # -- allocation (leader authority) --------------------------------------
    def reserve(self, kind: str, n: int) -> int:
        """Claim the next range of ``kind``; leader-side sessions only."""
        if self.party != 0:
            raise ServiceError("only party 0 allocates; party 1 receives offsets")
        with self._alloc_lock:
            if kind not in self.pools:
                raise ServiceError(f"unknown pool kind {kind!r}")
            self.session_draws[kind] = self.session_draws.get(kind, 0) + n
            return self.pools[kind].reserve(n)

    def _named_pools(self, kinds, what: str) -> dict:
        """The existing pools ``kinds`` name; an unknown kind is an error."""
        with self._alloc_lock:
            for kind in kinds:
                if kind not in self.pools:
                    raise ServiceError(f"{what}: unknown pool kind {kind!r}")
            return {kind: self.pools[kind] for kind in kinds}

    def _pool(self, recipe, *key):
        """The one pool factory: the pool ``recipe`` fills under ``key``,
        created on first use.

        Creation is local and idempotent, so the constructor, sessions
        and the command replay can each ensure a pool exists on their
        side without any cross-party coordination.  A pool made after
        the worker exited is closed at birth: waits on it fail with
        ``PoolClosed`` at once instead of burning their timeout on a
        producer that is gone.
        """
        name = recipe.pool_name(*key)
        with self._alloc_lock:
            pool = self.pools.get(name)
            if pool is None:
                if recipe.choose is None:
                    for src, _ in recipe.inputs(self.tuning.ring_bits, *key):
                        if src not in self.pools:
                            raise ServiceError(
                                f"{recipe.label} production needs "
                                f"{BY_KIND[src].label} production"
                            )
                pool = recipe.pool(self, name, *key)
                pool.recipe, pool.key = recipe, key
                pool.refill = self._wake
                pool.failure_probe = self._pool_probe
                pool.stall_observer = self._observe_stall
                pool.tracer = self.tracer
                if self._worker_done:
                    pool.close()
                self.pools[name] = pool
            return pool

    def _pool_name(self, kind: str, key: tuple) -> str:
        """The name of the pool a ``(pool kind, key)`` request means; a
        keyed pool is made on first use (see :meth:`_pool`)."""
        recipe = BY_KIND.get(kind)
        if recipe is None:
            raise ServiceError(f"unknown pool kind {kind!r}")
        if key:
            self._pool(recipe, *key)
        return recipe.pool_name(*key)

    def matrix_pool(self, m: int, k: int, n: int) -> MatrixTriplePool:
        """The shape-keyed matrix-triple pool for (m, k, n)."""
        return self._pool(MTRI, m, k, n)

    def trunc_pool(self, frac_bits: int) -> TruncPairPool:
        """The frac-keyed truncation-pair pool.  Pair production
        consumes pooled bit triples, so the service must run with
        ``enable_triples``."""
        return self._pool(TPRC, frac_bits)

    def session(self, name: str) -> "ServiceSession":
        """A consumer session speaking over the ``sess/<name>`` sub-channel."""
        return ServiceSession(self, self.mux.sub(f"sess/{name}"), name)

    # -- preprocessing phase -------------------------------------------------
    def prefill(self, targets: dict, timeout: float = None, one_shot: bool = False) -> None:
        """Run the preprocessing phase: block until every pool in
        ``targets`` holds that many items produced ahead.

        ``targets`` maps pool kind (including ``mtri/...`` keys created
        beforehand via :meth:`matrix_pool`) to the number of items the
        online phase will draw.  On the leader this *raises the
        low watermark* to the target, so the worker also keeps the pool
        warm for the next batch after consumption -- the steady-state
        service shape.  Both parties call this before their online
        phase; the follower waits for the mirrored production to land.

        With ``one_shot=True`` the leader restores every targeted
        pool's pre-call watermarks once the targets are met: the plan
        is served exactly once and no inflated refill target is left
        behind to make the worker regenerate demand that will never
        come back (the pipelined-prefill contract).
        """
        timeout = self.tuning.take_timeout_s if timeout is None else timeout
        deadline = time.monotonic() + timeout
        pools = self._named_pools(targets, "prefill")
        saved = None
        if self.party == 0:
            if one_shot:
                saved = {kind: pool.watermarks for kind, pool in pools.items()}
            for kind, count in targets.items():
                if count > 0:
                    pools[kind].raise_watermarks(low=count, high=count)
        self._wake.set()
        live = {kind: count for kind, count in targets.items() if count > 0}
        try:
            if self.party == 0:
                # Loop until every target holds SIMULTANEOUSLY: derived
                # production scheduled while one kind is being waited on
                # reserves raw COTs internally and can eat an
                # already-checked level back below its target.  Once all
                # derived targets are met that internal consumption
                # stops, so the re-check converges.
                while True:
                    for kind, count in live.items():
                        self._raise_if_failed()
                        pools[kind].wait_level(count, deadline - time.monotonic())
                    if all(pools[kind].level >= count for kind, count in live.items()):
                        break
            else:
                for kind, count in live.items():
                    self._raise_if_failed()
                    # The follower never reserves, so "produced ahead" is
                    # measured against what it has already taken -- repeated
                    # prefills wait for fresh production, not history.
                    pools[kind].wait_available(count, deadline - time.monotonic())
        finally:
            if saved is not None:
                for kind, (low, high) in saved.items():
                    pools[kind].set_watermarks(low, high)
        self._raise_if_failed()

    def raise_produce_targets(self, targets: dict) -> None:
        """Leader-side: schedule production out to absolute stream positions.

        ``targets`` maps pool kind to an absolute produced-count floor
        (see :meth:`CorrelationPool.raise_produce_target`).  Unlike
        :meth:`prefill` this does not block and does not touch
        watermarks: the pipelined planner raises one layer's targets,
        lets the online phase overlap, and the targets go inert as soon
        as production passes them.
        """
        if self.party != 0:
            raise ServiceError("only party 0 schedules production")
        pools = self._named_pools(targets, "produce target")
        for kind, target in targets.items():
            pools[kind].raise_produce_target(target)
        self._wake.set()

    # -- worker -------------------------------------------------------------
    def _run(self) -> None:
        try:
            if self._shard_mgr is not None:
                # Sharded mode: the parent endpoints mint every shard's
                # base COTs in one run (ShardManager.start) and are
                # themselves never set up or extended.
                self._shard_mgr.start()
            else:
                self.ferret_fwd.setup(self._data["prov/fwd"])
                if self.ferret_rev is not None:
                    self.ferret_rev.setup(self._data["prov/rev"])
            self._ready.set()
            if self.party == 0:
                try:
                    self._run_loop(self._leader_loop)
                finally:
                    # Always tell the follower to wind down -- even when
                    # the leader loop died on an exception -- so its
                    # consumers fail fast instead of polling forever.
                    try:
                        self._ctl.send_bytes(_STOP_FRAME)
                    except Exception:  # noqa: BLE001 - link may be gone
                        pass
            else:
                self._run_loop(self._follower_loop)
        except _StopRequested:
            pass  # a probe noticed stop() mid-wait: clean fast exit
        except BaseException as exc:  # noqa: BLE001 - crossing a thread
            self.error = exc
        finally:
            if self._shard_mgr is not None:
                try:
                    self._shard_mgr.stop()
                except Exception as exc:  # noqa: BLE001 - already unwinding
                    if self.error is None:
                        self.error = exc
            self._ready.set()
            # Sessions may still be creating pools from other threads:
            # snapshot under the lock, and have the factory close any
            # pool created from here on.
            with self._alloc_lock:
                self._worker_done = True
                pools = list(self.pools.values())
            for pool in pools:
                pool.close()

    def _run_loop(self, loop) -> None:
        """Run the party loop, restarting it once after a transient
        transport death (the restart-once contract: one more chance for
        a healed link, then the error is fatal and surfaces)."""
        while True:
            try:
                loop()
                return
            except _TRANSIENT as exc:
                if self.worker_restarts >= MAX_WORKER_RESTARTS:
                    raise
                self.worker_restarts += 1
                self._enter_degraded(exc)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "worker.restart", cat="degraded", cause=repr(exc)[:200]
                    )

    def _leader_loop(self) -> None:
        while not self._stop.is_set():
            self._check_peer_nack()
            if self.degraded_since is not None:
                if not self._leader_resync():
                    self._stop.wait(DEGRADED_RETRY_S)
                    continue
            cmd = self._decide()
            if cmd is None:
                self._wake.wait(POLL_INTERVAL_S)
                self._wake.clear()
                continue
            try:
                self._ctl.send_bytes(self._encode(cmd))
                self._execute(cmd)
            except _TRANSIENT as exc:
                # The command's retry budget (sliced receives over a
                # self-healing transport) is spent: abandon it, serve
                # stock only, and try to resync with the peer.  The
                # command is NOT resent -- after the resync barrier the
                # scheduler re-decides from the rolled-back pool state.
                self._enter_degraded(exc)

    def _follower_loop(self) -> None:
        while True:
            try:
                frame = self._ctl.recv_bytes(timeout=0.2)
            except ChannelTimeout:
                if self._stop.is_set():
                    return
                continue
            op = bytes(frame[:4])
            if op == OP_STOP:
                return
            if op == OP_SYNC:
                self._follower_resync(frame)
                continue
            if op in (OP_SYNC_ACK, OP_NACK):
                continue  # stale resync chatter; barriers are leader-driven
            cmd = self._decode(frame)
            if self.degraded_since is not None:
                # Commands issued before the leader noticed our failure:
                # keep pool consumption aligned without running the
                # (unservable) interactive protocol.
                self._align_stale_command(cmd)
                continue
            try:
                self._execute(cmd)
            except _TRANSIENT as exc:
                self._enter_degraded(exc)
                self._send_nack(exc)

    # -- resync barrier ------------------------------------------------------
    def _check_peer_nack(self) -> None:
        """Leader: drain ctl for a follower failure report (NACK)."""
        for frame in self._ctl.drain():
            if bytes(frame[:4]) == OP_NACK:
                detail = frame[4:].decode(errors="replace")
                self._enter_degraded(
                    ChannelError(f"peer reported command failure: {detail}")
                )

    def _send_nack(self, exc: Exception) -> None:
        """Follower: tell the leader promptly that execution failed, so
        it stops issuing commands we can no longer serve."""
        if self._nack_sent:
            return
        try:
            self._ctl.send_bytes(OP_NACK + repr(exc).encode()[:512])
            self._nack_sent = True
        except ChannelError:
            pass  # link fully down; the leader will notice by timeout

    def _produced_counts(self) -> dict:
        with self._alloc_lock:
            return {kind: pool.produced for kind, pool in self.pools.items()}

    def _leader_resync(self) -> bool:
        """One resync attempt: barrier + mutual rollback.  True on success.

        The leader publishes its per-pool produced counts; the follower
        drains every provisioning data channel (FIFO ordering guarantees
        all frames of the abandoned command precede the SYNC), replies
        with its own counts, and both sides roll every pool back to the
        elementwise minimum -- restoring the mirrored absolute-index
        streams.  At most ONE command can have completed asymmetrically
        (commands are sequential), so at most one pool moves.
        """
        self._sync_nonce += 1
        payload = {"nonce": self._sync_nonce, "produced": self._produced_counts()}
        try:
            self._ctl.send_bytes(OP_SYNC + json.dumps(payload).encode())
            deadline = time.monotonic() + self.tuning.retry.deadline_s
            while True:
                remaining = max(0.05, deadline - time.monotonic())
                frame = self._ctl.recv_bytes(timeout=remaining)
                op = bytes(frame[:4])
                if op == OP_NACK:
                    continue  # already degraded; the barrier supersedes it
                if op != OP_SYNC_ACK:
                    raise ChannelError(
                        f"resync expected SACK, got {op!r}"
                    )
                reply = json.loads(frame[4:].decode())
                if reply.get("nonce") == self._sync_nonce:
                    break
                # A stale ack from an earlier attempt: keep waiting.
            # All follower frames from the abandoned command precede its
            # SACK on the wire, so they are queued by now: drop them.
            for ch in self._data_channels:
                ch.base.drain()
            self._rollback_pools(reply["produced"])
        except _TRANSIENT:
            return False
        self.resyncs += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "service.resync", cat="resync", role="leader", nonce=self._sync_nonce
            )
        self._clear_degraded()
        return True

    def _follower_resync(self, frame: bytes) -> None:
        """Answer a leader resync barrier (see :meth:`_leader_resync`)."""
        payload = json.loads(frame[4:].decode())
        # Every leader frame from the abandoned command precedes the
        # SYNC on the wire, so the stray data frames are queued: drain
        # them before acking, then roll back to the mutual minimum.
        for ch in self._data_channels:
            ch.base.drain()
        mine = self._produced_counts()
        try:
            self._ctl.send_bytes(
                OP_SYNC_ACK
                + json.dumps({"nonce": payload["nonce"], "produced": mine}).encode()
            )
        except ChannelError as exc:
            self._enter_degraded(exc)
            return
        self._rollback_pools(payload["produced"])
        self.resyncs += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "service.resync",
                cat="resync",
                role="follower",
                nonce=payload["nonce"],
            )
        self._clear_degraded()

    def _rollback_pools(self, peer_produced: dict) -> None:
        """Roll every pool back to min(local, peer) produced counts.

        A COT pool that moves also restores its Ferret endpoint to the
        snapshot taken before the rolled-back extend, so the re-run
        extend consumes matching LPN/SPCOT state on both parties.
        """
        with self._alloc_lock:
            pools = dict(self.pools)
        for kind, pool in pools.items():
            target = min(pool.produced, int(peer_produced.get(kind, pool.produced)))
            if target >= pool.produced:
                continue
            direction = pool.recipe.direction
            if direction is not None:  # a raw-COT pool
                last = self._last_extend.get(direction)
                if last is None or last[1] != target:
                    raise ServiceError(
                        f"resync: pool {kind} must roll back to {target} but "
                        f"the last extend snapshot covers "
                        f"{None if last is None else last[1]}; more than one "
                        f"extend diverged -- state unrecoverable"
                    )
                self._ferret_restore(direction, last[0])
            self.rolled_back += pool.rollback_to(target)

    def _align_stale_command(self, cmd: Command) -> None:
        """Keep consumption aligned for commands issued before the
        leader noticed our failure (we cannot run their interactive
        protocol any more, but the leader consumed their inputs).

        Local conversions (no data channel) execute fully when their
        input ranges are available -- identical output on both sides,
        pools stay level.  Interactive commands only have their pool
        *inputs* consumed (the leader's execution of them timed out too,
        so neither side appended output); extends have none.  Inputs
        not yet produced locally are left to the resync rollback, which
        erases the leader's view of them.
        """
        ranges = self._input_ranges(cmd)
        ready = [
            (pool, lo, n) for pool, lo, n in ranges
            if n > 0 and pool.produced >= lo + n
        ]
        if cmd.recipe.tag is None:
            if len(ready) == len(ranges):
                self._execute(cmd)
            return
        for pool, lo, n in ready:
            pool.take_columns(lo, n)

    # -- ferret endpoint snapshots -------------------------------------------
    def _endpoint(self, direction: str):
        return self.ferret_fwd if direction == "fwd" else self.ferret_rev

    def _ferret_snapshot(self, direction: str) -> dict:
        """Capture the mutable mid-stream state of one Ferret endpoint.

        ``extend`` is compute-then-commit except for the endpoint's own
        rng, the SPCOT base-COT cursor, and the LPN seed refs it swaps
        at the end -- exactly the fields below.  Restoring them makes a
        retried extend bit-compatible with the peer's fresh run.
        """
        ep = self._endpoint(direction)
        return {
            "rng_state": ep.rng.bit_generator.state,
            "lpn_r": getattr(ep, "_lpn_r", None),
            "lpn_e": getattr(ep, "_lpn_e", None),
            "lpn_s": getattr(ep, "_lpn_s", None),
            "spcot_pool": ep._spcot_pool,
            "spcot_cursor": None if ep._spcot_pool is None else ep._spcot_pool._cursor,
            "iterations": ep.iterations,
        }

    def _ferret_restore(self, direction: str, snap: dict) -> None:
        ep = self._endpoint(direction)
        ep.rng.bit_generator.state = snap["rng_state"]
        if hasattr(ep, "_lpn_r"):
            ep._lpn_r = snap["lpn_r"]
        if hasattr(ep, "_lpn_e"):
            ep._lpn_e = snap["lpn_e"]
            ep._lpn_s = snap["lpn_s"]
        ep._spcot_pool = snap["spcot_pool"]
        if ep._spcot_pool is not None:
            ep._spcot_pool._cursor = snap["spcot_cursor"]
        ep.iterations = snap["iterations"]

    # -- command frames ------------------------------------------------------
    @staticmethod
    def _encode(cmd: Command) -> bytes:
        """Frame a command by its recipe's slot layout."""
        key, offsets = iter(cmd.key), iter(cmd.offsets)
        slots = {
            "n": lambda: cmd.n,
            "k": lambda: next(key),
            "v": lambda: cmd.variant,
            "o": lambda: next(offsets, 0),
        }
        recipe = cmd.recipe
        return recipe.frame.pack(recipe.op, *(slots[c]() for c in recipe.layout))

    @staticmethod
    def _decode(frame: bytes) -> Command:
        recipe = BY_OP.get(bytes(frame[:4]))
        if recipe is None:
            raise ServiceError(f"unknown provisioning opcode {bytes(frame[:4])!r}")
        scalars = {"n": 1, "v": 0}  # a frame without a count carries one item
        lists = {"k": [], "o": []}
        for c, value in zip(recipe.layout, recipe.frame.unpack(frame)[1:]):
            if c in lists:
                lists[c].append(value)
            else:
                scalars[c] = value
        return Command(
            recipe, tuple(lists["k"]), scalars["n"], scalars["v"], tuple(lists["o"])
        )

    # -- scheduling (leader) and execution (both) ----------------------------
    def _inputs(self, recipe, key: tuple, variant: int = None) -> tuple:
        """``(variant, inputs)`` one command of ``recipe`` consumes: all
        of the recipe's inputs, or -- for a recipe that chooses -- the
        one ``variant`` names (``None``: chosen now, by stock)."""
        inputs = recipe.inputs(self.tuning.ring_bits, *key)
        if recipe.choose is None:
            return 0, inputs
        if variant is None:
            variant = recipe.choose(self.pools)
        return variant, inputs[variant : variant + 1]

    def _input_ranges(self, cmd: Command) -> list:
        """``(source pool, offset, count)`` per input of a command."""
        _, inputs = self._inputs(cmd.recipe, cmd.key, cmd.variant)
        return [
            (self.pools[src], lo, cmd.n * per)
            for (src, per), lo in zip(inputs, cmd.offsets)
        ]

    def _decide(self):
        """Leader scheduling: pick the next production command, if any.

        Of the pools asking for a refill, schedules the one whose recipe
        comes first in the table's priority order -- extends (the only
        source of raw COTs), then derived production.

        In sharded mode extends never become commands: raw-COT deficits
        are dispatched to the shard workers instead, and derived
        production waits for the merged pools to fill.
        """
        sharded = self._shard_mgr is not None
        if sharded:
            self._shard_mgr.request_refills()
        with self._alloc_lock:
            asking = [
                pool for pool in self.pools.values()
                if pool.needs_refill() and not (sharded and pool.recipe.direction)
            ]
            if not asking:
                return None
            # min() keeps the first created among one recipe's pools.
            pool = min(asking, key=lambda pool: RECIPES.index(pool.recipe))
            return self._schedule(pool, pool.deficit)

    def _schedule(self, pool, want: int):
        """One command adding up to ``want`` items to ``pool`` (caller
        holds the allocation lock), or ``None`` when nothing can run.

        Inputs are reserved only over ranges that are *already
        produced*, so the worker never deadlocks on its own output.  A
        pool whose inputs cannot cover a single item is starved: the
        command becomes a batch of the short input's own recipe --
        bit triples for a truncation pair, and at the bottom of every
        chain an extend (sharded: a nudge to the shard fleet to keep
        one extend of that direction in flight, and ``None`` so the
        loop sleeps on ``_wake`` until the merger lands a batch).  Raw
        COTs are checked before derived inputs, and of two short COT
        directions the lower level is extended first, ties going to the
        first listed (forward).
        """
        recipe = pool.recipe
        variant, inputs = self._inputs(recipe, pool.key)
        if not inputs:
            if self._shard_mgr is None:
                return Command(recipe)
            self._shard_mgr.request_extend(recipe.direction)
            return None
        want = max(1, min(want, recipe.cap(self.tuning)))
        sources = [(self.pools[src], per) for src, per in inputs]
        n = min(want, *(src.level // per for src, per in sources))
        if n <= 0:
            short = [(src, per) for src, per in sources if src.level < per]
            # min() keeps the first listed among equals.
            src, per = min(
                short, key=lambda sp: (sp[0].recipe.direction is None, sp[0].level)
            )
            return self._schedule(src, max(want * per - src.level, 1))
        offsets = tuple(src.try_reserve_produced(n * per) for src, per in sources)
        return Command(recipe, pool.key, n, variant, offsets)

    def _execute(self, cmd: Command) -> None:
        """Run one command -- take its inputs at the commanded offsets,
        generate, append -- as both workers do in lockstep."""
        recipe = cmd.recipe
        pool = self._pool(recipe, *cmd.key)
        with self.tracer.span(f"produce.{recipe.name}", cat="produce", n=cmd.n):
            taken = [src.take(lo, n) for src, lo, n in self._input_ranges(cmd)]
            pool.append(
                recipe.produce(self, self._data.get(recipe.tag), pool, cmd, *taken)
            )

    def _run_extend(self, direction: str, channel):
        """One extend, snapshot-protected for abandon/rollback.

        Extend mutates endpoint state mid-protocol (rng draws, SPCOT
        cursor, LPN seed swap), so a transient failure restores the
        pre-extend snapshot before propagating -- and a *completed*
        extend keeps its snapshot in ``_last_extend`` so a later resync
        can undo it if the peer's half never finished.
        """
        snap = self._ferret_snapshot(direction)
        try:
            batch = self._endpoint(direction).extend(channel)
        except _TRANSIENT:
            self._ferret_restore(direction, snap)
            raise
        self._last_extend[direction] = (snap, self.pools[f"cot/{direction}"].produced)
        self.extends[direction] += 1
        return batch


class ServiceSession:
    """One consumer's handle on the service: :meth:`draw` + a channel.

    The session's sub-channel carries both the allocation offsets and
    whatever protocol traffic the consumer runs; peers must create
    sessions with matching names and issue draws in the same order
    (which any two-party protocol does naturally).
    """

    def __init__(self, service: CorrelationService, channel, name: str):
        self.service = service
        self.channel = channel
        self.name = name

    @property
    def party(self) -> int:
        return self.service.party

    def draw(self, requests: list) -> tuple:
        """Draw a consumer's whole correlation list: ``(batches, offsets)``.

        ``requests`` is an ordered list of ``(pool kind, key, count)``
        in shared-pool names -- what a verb's ``*_draws`` function
        returns (``("cot/fwd", (), n)``, ``("mtri", (m, k, n), 1)``).
        Both parties ensure the keyed pools exist locally; party 0
        reserves every range in list order and announces ALL offsets in
        one message (a uint64 vector), party 1 receives them; each then
        takes its own role's typed batch of every range -- a warm pool
        serves instantly, a cold one stalls here while the service
        produces on demand.
        """
        svc = self.service
        wanted = [(svc._pool_name(kind, key), count) for kind, key, count in requests]
        if self.party == 0:
            offsets = [svc.reserve(name, count) for name, count in wanted]
            self.channel.send_ring(np.asarray(offsets, dtype=np.uint64))
        else:
            got = self.channel.recv_ring()
            if got.shape[0] != len(wanted):
                raise ServiceError(
                    f"allocation expected {len(wanted)} offsets, got {got.shape[0]}"
                )
            offsets = [int(v) for v in got]
        tr = svc.tracer
        if tr.enabled:
            tr.instant(
                "session.alloc", cat="session", session=self.name,
                kinds=",".join(name for name, _ in wanted),
            )
        batches = [
            svc.pools[name].take(lo, count, timeout=svc.tuning.take_timeout_s)
            for (name, count), lo in zip(wanted, offsets)
        ]
        return batches, offsets

    # -- chosen-message OT straight off the pool -----------------------------
    def _draw_cots(self, sending: bool, n: int) -> tuple:
        """(this party's batch, tweaks) of n COTs in the direction where
        it sends (or receives)."""
        direction = "fwd" if sends(self.party, "fwd") == sending else "rev"
        (batch,), (lo,) = self.draw([(f"cot/{direction}", (), n)])
        return batch, np.arange(lo, lo + n, dtype=np.uint64)

    def ot_send(self, messages0: np.ndarray, messages1: np.ndarray) -> None:
        """Chosen-message OT sender over the session channel."""
        batch, tweaks = self._draw_cots(True, messages0.shape[0])
        ot_send_from_cot(self.channel, batch, messages0, messages1, tweaks=tweaks)

    def ot_receive(self, choices: np.ndarray) -> np.ndarray:
        """Chosen-message OT receiver; returns messages[choices[i]]."""
        batch, tweaks = self._draw_cots(False, np.asarray(choices).shape[0])
        return ot_receive_from_cot(self.channel, batch, choices, tweaks=tweaks)
