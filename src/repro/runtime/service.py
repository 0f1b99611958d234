"""The background correlation provisioning service.

One :class:`CorrelationService` runs per party.  It owns two Ferret
endpoints -- the *forward* direction (party 0 is the COT sender)
and the *reverse* direction (party 1 is the sender), because every
role-switching workload (bit triples, the ReLU multiplexer) needs OTs
both ways -- and a worker thread that runs ``extend()`` and derived
production while consumers draw: out to the absolute produce targets
preprocessing plans set, and out to what draws reserve ahead of
production.  Nothing else asks for production: an idle service extends
nothing.  This is the Figure 1(b) amortization realized as a long-lived
runtime: the base-COT Init runs once per service pair (128 PKC OTs for
the forward direction, whose IKNP mints 128 spare COTs that seed the
reverse one, see :meth:`CorrelationService.mint_base_cots`), then
extends stream correlations to any number of sessions.

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
  states its name, pool, input pools and per-item counts, batch cap
  and generator.  The code here is generic over it: the leader's
  scheduler walks the table in priority order, reserves the inputs of
  the first pool that asks for a refill, and sends one command message
  (:data:`CONTROL`) on the ``prov/ctl`` sub-channel naming the recipe,
  the pool key, the item count and the exact input ranges; both
  workers execute it the same way (take the inputs, generate, append),
  the follower replaying commands in order.

Thread interleaving on either host therefore cannot desynchronize the
two parties: the command stream and the per-session offset streams are
the only sources of truth.

**Liveness.**  The leader only schedules derived production over
ranges that are already produced (``try_reserve_produced``), and a kind
whose raw-COT inputs are short gets that direction's extend scheduled in
its place, so the worker never blocks waiting on production that the
worker itself would have to run.
Consumer draws may over-reserve freely; the resulting negative pool
level is exactly the demand signal the leader tops up.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ProtocolError,
    ServiceDegraded,
    ServiceError,
)
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.fingerprint import PROTOCOL, check_peer_protocol
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.ot.base_ot import KAPPA
from repro.ot.channel import decode_msg, encode_msg
from repro.ot.cot import CotReceiverBatch, CotSenderBatch
from repro.ot.retry import RetryingChannel, RetryPolicy
from repro.runtime.mux import MuxChannel
from repro.runtime.recipes import BY_KIND, BY_NAME, RECIPES, Command, sends

#: The ``prov/ctl`` messages (:func:`repro.ot.channel.decode_msg`):
#: hello, each party's first message, carries only its
#: :data:`repro.fingerprint.PROTOCOL`, so a peer on any version parses
#: it and the version check runs first; config, the second, carries
#: its :data:`HELLO_CONFIG` settings; one command op per recipe, named
#: by ``Recipe.name``; STOP winds the follower down; SYNC is the
#: leader's recovery barrier, SACK the follower's reply, NACK the
#: follower's prompt "my command execution failed" signal.
_COMMAND = {"key": [int], "n": int, "offsets": [int]}
_PRODUCED = {"nonce": int, "produced": {str: int}}
#: The settings that shape what crosses the wire, each a config field:
#: the Ferret config's LPN ``(n, k, t)``, GGM arity, tree PRG and LPN
#: matrix seed, and the service's ring width.  Two parties that differ
#: in any of them exchange frames of the right sizes and compute broken
#: correlations, so the handshake refuses the mismatch instead.
HELLO_CONFIG = {
    "n": int, "k": int, "t": int, "arity": int, "prg_kind": str, "matrix_seed": int,
    "ring_bits": int,
}
CONTROL = {
    "hello": {"protocol": str},
    "config": HELLO_CONFIG,
    **{recipe.name: _COMMAND for recipe in RECIPES},
    "STOP": {},
    "SYNC": _PRODUCED,
    "SACK": _PRODUCED,
    "NACK": {"detail": str},
}

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
#: Retry/backoff bounds of the worker's blocking receives: sliced waits
#: that re-check liveness between slices.  ``deadline_s`` also bounds a
#: resync barrier's wait for the peer's SACK.
RETRY = RetryPolicy()


class _StopRequested(Exception):
    """Internal: a liveness probe noticed the stop flag mid-wait."""


@dataclass
class ServiceTuning:
    """Batch sizes and ring width for the provisioning worker.

    Every pool, raw-COT ones included, is filled by produce targets and
    by draws that outrun it; no setting here asks for production.
    ``ring_bits`` fixes the ring Z_2^bits of every arithmetic
    correlation (matrix triples) the service produces -- both parties
    must agree, and preprocessing plans must be computed at the same
    width.
    """

    triple_low: int = 128  # unread; benchmarks/ledger/fixture.py is its only writer
    triple_high: int = 1024  # unread; benchmarks/ledger/fixture.py is its only writer
    triple_chunk: int = 1024
    ring_bits: int = 32
    rtri_chunk: int = 256  # unread; benchmarks/ledger/fixture.py is its only writer
    enable_rots: bool = True  # unread; benchmarks/ledger/fixture.py is its only writer
    take_timeout_s: float = 300.0


class CorrelationService:
    """Pooled Ferret provisioning for one party.

    Args:
        party: 0 (leader / allocation authority) or 1 (follower).
        mux: this party's :class:`MuxChannel` endpoint; the service
            claims the ``prov/*`` sub-channels and hands sessions
            ``sess/<name>`` sub-channels.
        config: the Ferret configuration (shared by both directions).
        tuning: batch sizes and ring width; both parties should pass
            equal ones.
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
        # Provisioning data channels (one per recipe) wait in
        # policy-sized slices with a liveness probe between slices, so a
        # worker blocked mid-protocol notices a stop request or a dead
        # pump in ~attempt_timeout_s instead of after the full
        # (mux-default) receive timeout.
        self._data = {
            recipe.tag: RetryingChannel(
                mux.sub(recipe.tag), RETRY,
                probe=self._worker_probe, default_timeout=mux.timeout,
            )
            for recipe in RECIPES
        }
        self._data_channels = tuple(self._data.values())
        self._rng = np.random.default_rng(seed + 0x7000 + party)

        # Ferret endpoints, per-role seeds seed .. seed + 3.
        def endpoint(direction: str, offset: int):
            role = FerretSender if sends(party, direction) else FerretReceiver
            return role(config, seed=seed + offset + party)

        self.ferret_fwd = endpoint("fwd", 0)
        self.ferret_rev = endpoint("rev", 2)

        # One wake event shared by every pool: any demand pulse (a
        # reserve outrunning production, a raised target, a blocked take)
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

        self._alloc_lock = threading.Lock()
        #: Set (under the allocation lock) once the worker has exited:
        #: the pool factory hands out pools created later already closed.
        self._worker_done = False
        #: Every pool, raw-COT ones included, is made on first use (see
        #: _pool): a direction nothing draws has no pool and no extend.
        self.pools: dict = {}

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
        ``pool/stall_ms`` histogram.  Pure read: for per-phase
        accounting, difference two snapshots."""
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
        """The pools ``kinds`` name.  An unkeyed kind is made on first
        use; a keyed pool (``mtri/2x3x2``) must already exist."""
        pools = {}
        for kind in kinds:
            pool = self.pools.get(kind)
            if pool is None:
                recipe = BY_KIND.get(kind)
                if recipe is None or recipe.key_for is not None:
                    raise ServiceError(f"{what}: unknown pool kind {kind!r}")
                pool = self._pool(recipe)
            pools[kind] = pool
        return pools

    def pool(self, kind: str, key: tuple = ()):
        """The pool a ``(pool kind, key)`` request names, made on first
        use: ``pool("tri")``, ``pool("mtri", (m, k, n))``."""
        recipe = BY_KIND.get(kind)
        if recipe is None or bool(key) != (recipe.key_for is not None):
            raise ServiceError(f"unknown pool kind {kind!r} (key {key!r})")
        return self._pool(recipe, *key)

    def _pool(self, recipe, *key):
        """The one pool factory: the pool ``recipe`` fills under ``key``,
        created on first use.

        A derived pool first ensures its raw-COT inputs; a raw-COT pool
        exists from the first draw, plan, produce target or command that
        names it.  Making a pool asks for no production.
        Creation is local and idempotent, so sessions, plans and the
        command replay can each ensure a pool exists on their side
        without any cross-party coordination.  A pool made after the
        worker exited is closed at birth: waits on it fail with
        ``PoolClosed`` at once instead of burning their timeout on a
        producer that is gone.
        """
        name = recipe.pool_name(*key)
        if name not in self.pools:
            for src, _ in recipe.inputs(self.tuning.ring_bits, *key):
                self._pool(BY_KIND[src])
        with self._alloc_lock:
            pool = self.pools.get(name)
            if pool is None:
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

    def session(self, name: str) -> "ServiceSession":
        """A consumer session speaking over the ``sess/<name>`` sub-channel."""
        return ServiceSession(self, self.mux.sub(f"sess/{name}"), name)

    # -- preprocessing phase -------------------------------------------------
    def produce_to(self, goals: dict, timeout: float) -> None:
        """Schedule (leader) and wait for (both parties) absolute
        produced-count ``goals``, pool name -> position."""
        deadline = time.monotonic() + timeout
        if self.party == 0:
            self.raise_produce_targets(goals)
        for kind, goal in goals.items():
            self._raise_if_failed()
            self.pools[kind].wait_produced(goal, deadline - time.monotonic())
        self._raise_if_failed()

    def raise_produce_targets(self, targets: dict) -> None:
        """Leader-side: schedule production out to absolute stream positions.

        ``targets`` maps pool name to an absolute produced-count floor
        (see :meth:`CorrelationPool.raise_produce_target`); raised under
        the allocation lock, so the scheduler sees all of them or none.
        Does not block: the targets go inert as soon as production
        passes them.
        """
        if self.party != 0:
            raise ServiceError("only party 0 schedules production")
        pools = self._named_pools(targets, "produce target")
        with self._alloc_lock:
            for kind, target in targets.items():
                pools[kind].raise_produce_target(target)
        self._wake.set()

    # -- worker -------------------------------------------------------------
    def _run(self) -> None:
        try:
            self._hello()
            fwd, rev = self.mint_base_cots(self._data["prov/fwd"], self._data["prov/rev"])
            self.ferret_fwd.seed_base_cots(*fwd)
            self.ferret_rev.seed_base_cots(*rev)
            self._ready.set()
            if self.party == 0:
                try:
                    self._run_loop(self._leader_loop)
                finally:
                    # Always tell the follower to wind down -- even when
                    # the leader loop died on an exception -- so its
                    # consumers fail fast instead of polling forever.
                    try:
                        self._ctl.send_msg("STOP")
                    except Exception:  # noqa: BLE001 - link may be gone
                        pass
            else:
                self._run_loop(self._follower_loop)
        except _StopRequested:
            pass  # a probe noticed stop() mid-wait: clean fast exit
        except BaseException as exc:  # noqa: BLE001 - crossing a thread
            self.error = exc
        finally:
            self._ready.set()
            # Sessions may still be creating pools from other threads:
            # snapshot under the lock, and have the factory close any
            # pool created from here on.
            with self._alloc_lock:
                self._worker_done = True
                pools = list(self.pools.values())
            for pool in pools:
                pool.close()

    def hello_config(self) -> dict:
        """This party's :data:`HELLO_CONFIG` values."""
        cfg = self.config
        return {
            "n": cfg.params.n, "k": cfg.params.k, "t": cfg.params.t,
            "arity": cfg.arity, "prg_kind": cfg.prg_kind, "matrix_seed": cfg.matrix_seed,
            "ring_bits": self.tuning.ring_bits,
        }

    def _hello(self) -> None:
        """Exchange :data:`PROTOCOL`, then :meth:`hello_config`, with
        the peer; a mismatch fails the worker before any base OT runs,
        naming both fingerprints or every differing setting.  The
        config is compared only once the versions match.  The waits are
        sliced like every worker receive, so a stop request ends them."""
        mine = self.hello_config()
        self._ctl.send_msg("hello", protocol=PROTOCOL)
        self._ctl.send_msg("config", **mine)
        ctl = RetryingChannel(
            self._ctl, RETRY, probe=self._worker_probe,
            default_timeout=self.mux.timeout,
        )
        msg = ctl.recv_msg(CONTROL)
        if msg["op"] != "hello":
            raise ProtocolError(f"expected the peer's hello, got {msg['op']!r}")
        check_peer_protocol(msg["protocol"])
        msg = ctl.recv_msg(CONTROL)
        if msg["op"] != "config":
            raise ProtocolError(f"expected the peer's config, got {msg['op']!r}")
        differ = [
            f"{name} {msg[name]!r} (this party {value!r})"
            for name, value in mine.items() if msg[name] != value
        ]
        if differ:
            raise ProtocolError(f"peer's service config differs: {', '.join(differ)}")

    def mint_base_cots(self, fwd_channel, rev_channel) -> tuple:
        """Both directions' base COTs for one first iteration, with ONE
        PKC run per service pair.

        The forward endpoint mints ``base_cots_needed`` COTs plus
        ``KAPPA`` spare ones carved after them; those are the
        reverse direction's seed OTs (P0, the forward COT sender, offers
        the reverse IKNP's seed pairs; P1, the reverse Delta-holder,
        chooses with the bits of its Delta), so the reverse mint runs no
        PKC.  Both directions are minted whether or not anything ever
        draws the reverse one: its mint costs no public-key OT.
        Returns ``(fwd columns, rev columns)``, each of
        ``base_cots_needed`` rows.
        """
        fwd, rev = self.ferret_fwd, self.ferret_rev
        need = self.config.base_cots_needed
        columns = fwd.mint_base_cots(fwd_channel, need + KAPPA)
        head = tuple(column[:need] for column in columns)
        tail = tuple(column[need:] for column in columns)
        seed_cots = CotSenderBatch(fwd.delta, *tail) if self.party == 0 else CotReceiverBatch(*tail)
        return head, rev.mint_base_cots(rev_channel, need, seed_cots)

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
                msg = self._ctl.recv_msg(CONTROL, timeout=0.2)
            except ChannelTimeout:
                if self._stop.is_set():
                    return
                continue
            op = msg["op"]
            if op == "STOP":
                return
            if op == "SYNC":
                self._follower_resync(msg)
                continue
            if op in ("SACK", "NACK"):
                continue  # stale resync chatter; barriers are leader-driven
            cmd = self._decode(msg)
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
            msg = decode_msg(frame, CONTROL)
            if msg["op"] == "NACK":
                self._enter_degraded(
                    ChannelError(f"peer reported command failure: {msg['detail']}")
                )

    def _send_nack(self, exc: Exception) -> None:
        """Follower: tell the leader promptly that execution failed, so
        it stops issuing commands we can no longer serve."""
        if self._nack_sent:
            return
        try:
            self._ctl.send_msg("NACK", detail=repr(exc)[:512])
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
        try:
            self._ctl.send_msg("SYNC", nonce=self._sync_nonce, produced=self._produced_counts())
            deadline = time.monotonic() + RETRY.deadline_s
            while True:
                remaining = max(0.05, deadline - time.monotonic())
                reply = self._ctl.recv_msg(CONTROL, timeout=remaining)
                if reply["op"] == "NACK":
                    continue  # already degraded; the barrier supersedes it
                if reply["op"] != "SACK":
                    raise ProtocolError(f"resync expected SACK, got {reply['op']!r}")
                if reply["nonce"] == self._sync_nonce:
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

    def _follower_resync(self, sync: dict) -> None:
        """Answer a leader resync barrier (see :meth:`_leader_resync`)."""
        # Every leader frame from the abandoned command precedes the
        # SYNC on the wire, so the stray data frames are queued: drain
        # them before acking, then roll back to the mutual minimum.
        for ch in self._data_channels:
            ch.base.drain()
        mine = self._produced_counts()
        try:
            self._ctl.send_msg("SACK", nonce=sync["nonce"], produced=mine)
        except ChannelError as exc:
            self._enter_degraded(exc)
            return
        self._rollback_pools(sync["produced"])
        self.resyncs += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "service.resync",
                cat="resync",
                role="follower",
                nonce=sync["nonce"],
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
            target = min(pool.produced, peer_produced.get(kind, pool.produced))
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
                self._endpoint(direction).restore(last[0])
            self.rolled_back += pool.rollback_to(target)

    def _align_stale_command(self, cmd: Command) -> None:
        """Keep consumption aligned for commands issued before the
        leader noticed our failure (we cannot run their interactive
        protocol any more, but the leader consumed their inputs).

        Only the command's pool *inputs* are consumed (the leader's
        execution of it timed out too, so neither side appended
        output); extends have none.  Inputs not yet produced locally
        are left to the resync rollback, which erases the leader's view
        of them.
        """
        for pool, lo, n in self._input_ranges(cmd):
            if n > 0 and pool.produced >= lo + n:
                pool.take_columns(lo, n)

    # -- ferret endpoints -----------------------------------------------------
    def _endpoint(self, direction: str):
        return self.ferret_fwd if direction == "fwd" else self.ferret_rev

    # -- command messages ----------------------------------------------------
    @staticmethod
    def _encode(cmd: Command) -> bytes:
        return encode_msg(cmd.recipe.name, key=list(cmd.key), n=cmd.n, offsets=list(cmd.offsets))

    def _decode(self, msg: dict) -> Command:
        """The command of a ``CONTROL`` message, if its key and offsets
        have the lengths its recipe declares."""
        recipe = BY_NAME.get(msg["op"])
        if recipe is None:
            raise ProtocolError(f"control op {msg['op']!r} is not a production command")
        key, offsets = tuple(msg["key"]), tuple(msg["offsets"])
        if len(key) != recipe.key_len:
            raise ProtocolError(f"{recipe.name} command key {key} is not {recipe.key_len} long")
        want = len(recipe.inputs(self.tuning.ring_bits, *key))
        if len(offsets) != want:
            raise ProtocolError(f"{recipe.name} command has {len(offsets)} offsets, not {want}")
        return Command(recipe, key, msg["n"], offsets)

    # -- scheduling (leader) and execution (both) ----------------------------
    def _input_ranges(self, cmd: Command) -> list:
        """``(source pool, offset, count)`` per input of a command."""
        inputs = cmd.recipe.inputs(self.tuning.ring_bits, *cmd.key)
        return [
            (self._pool(BY_KIND[src]), lo, cmd.n * per)
            for (src, per), lo in zip(inputs, cmd.offsets)
        ]

    def _decide(self):
        """Leader scheduling: pick the next production command, if any.

        Of the pools asking for a refill, schedules the one whose recipe
        comes first in the table's priority order -- extends (the only
        source of raw COTs), then derived production.
        """
        with self._alloc_lock:
            asking = [pool for pool in self.pools.values() if pool.needs_refill()]
            if not asking:
                return None
            # min() keeps the first created among one recipe's pools.
            pool = min(asking, key=lambda pool: RECIPES.index(pool.recipe))
            return self._schedule(pool, pool.deficit)

    def _schedule(self, pool, want: int):
        """One command adding up to ``want`` items to ``pool`` (caller
        holds the allocation lock).

        Inputs are reserved only over ranges that are *already
        produced*, so the worker never deadlocks on its own output.
        Every derived recipe's inputs are raw-COT pools, so a pool whose
        inputs cannot cover a single item is starved on a direction: the
        command becomes that direction's extend.  Of two short
        directions the lower level is extended first, ties going to the
        first listed (forward).
        """
        recipe = pool.recipe
        inputs = recipe.inputs(self.tuning.ring_bits, *pool.key)
        if inputs:
            want = max(1, min(want, recipe.cap(self.tuning)))
            sources = [(self.pools[src], per) for src, per in inputs]
            n = min(want, *(src.level // per for src, per in sources))
            if n > 0:
                offsets = tuple(src.try_reserve_produced(n * per) for src, per in sources)
                return Command(recipe, pool.key, n, offsets)
            # min() keeps the first listed among equals.
            recipe = min(
                (src for src, per in sources if src.level < per),
                key=lambda src: src.level,
            ).recipe
        return Command(recipe)

    def _execute(self, cmd: Command) -> None:
        """Run one command -- take its inputs at the commanded offsets,
        generate, append -- as both workers do in lockstep."""
        recipe = cmd.recipe
        pool = self._pool(recipe, *cmd.key)
        with self.tracer.span(f"produce.{recipe.name}", cat="produce", n=cmd.n):
            taken = [src.take(lo, n) for src, lo, n in self._input_ranges(cmd)]
            pool.append(
                recipe.produce(self, self._data[recipe.tag], pool, cmd, *taken)
            )

    def _run_extend(self, direction: str, channel):
        """One extend, snapshot-protected for abandon/rollback.

        Extend mutates endpoint state mid-protocol (rng draws, SPCOT
        cursor, LPN seed swap), so a transient failure restores the
        pre-extend snapshot before propagating -- and a *completed*
        extend keeps its snapshot in ``_last_extend`` so a later resync
        can undo it if the peer's half never finished.
        """
        ep = self._endpoint(direction)
        snap = ep.snapshot()
        try:
            batch = ep.extend(channel)
        except _TRANSIENT:
            ep.restore(snap)
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
        Both parties ensure the pools exist locally; party 0
        reserves every range in list order and announces ALL offsets in
        one frame of 64-bit lanes, party 1 receives them; each then
        takes its own role's typed batch of every range -- a warm pool
        serves instantly, a cold one stalls here while the service
        produces on demand.
        """
        svc = self.service
        wanted = [(svc.pool(kind, key).name, count) for kind, key, count in requests]
        if self.party == 0:
            offsets = [svc.reserve(name, count) for name, count in wanted]
            self.channel.send_lanes(offsets, 64)
        else:
            offsets = [int(v) for v in self.channel.recv_lanes(len(wanted), 64)]
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
