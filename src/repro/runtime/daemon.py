"""Persistent two-party inference daemon over one CorrelationService.

The paper's offline/online split only pays off operationally when the
online phase is a long-lived *service*: correlations produced under one
request's online tail are what make the NEXT request's time-to-first-
layer-online cheap.  This module turns the one-example-script-per-run
serving loop into that daemon:

* **Many requests, one service.**  Both parties construct an
  :class:`InferenceDaemon` over their (already started)
  :class:`repro.runtime.service.CorrelationService` with the same model
  graph and their half of the weight shares.  Clients submit input
  shares per named session; the daemon runs the MPC online phase itself
  and holds the result share under a lease.
* **Cross-request pipelining.**  Each request's batch-scaled
  :class:`repro.ppml.plan.PipelinedPrefill` is built at admission; the
  scheduler thread runs them inline, one after the other: request
  r+1's layer-0 produce targets are raised the moment request r's
  *production* finishes -- while r's online tail is still draining on
  the online thread -- so the pool never idles between requests.  The
  chain is arithmetic: request r+1's stream positions start where
  request r's end, ``start + batch x plan totals``, because a request's
  draws and the derived production behind them are plan constants.
  Stream positions are the only way the daemon asks for production.
* **Batched inference.**  A request may carry B>1 inputs through one
  pipelined plan: every per-layer produce target scales by B, linear
  layers draw B matrix triples, and nonlinears fuse the whole batch
  into one draw sequence.
* **Admission control + per-session backpressure.**  The leader bounds
  daemon-wide in-flight requests (typed
  :class:`repro.errors.AdmissionReject` when full) and each session
  blocks at ``session_inflight`` unfinished submissions -- backpressure
  on top of (not instead of) the pools' own.
* **Leases ride the resume handshake.**  Every admitted request gets a
  lease token + expiry.  :meth:`InferenceDaemon.resume_state` wraps the
  service's PR-6 resume state with the live lease table and *renews*
  the leases it reports -- a reconnect handshake in progress IS the
  dropped client coming back -- so wiring it as a
  ``ReconnectingChannel.state_provider`` lets a client re-attach
  (:meth:`InferenceDaemon.attach`) to its in-flight request instead of
  orphaning reserved pool ranges.  A request leaves the lease table
  when its result is claimed; unclaimed results of expired leases are
  dropped by a reaper (``lease.expire`` span).

Determinism contract: the leader (party 0) makes every admission
decision and announces it on the ``daemon/ctl`` sub-channel; the
follower executes admitted requests in announcement order.  Both
parties therefore construct pipelines and issue draws in the same
global order, which is what keeps the absolute-index correlation
streams mirrored.  A ``daemon/ctl`` frame the follower cannot parse
fails every pending and live request at once with a typed
:class:`repro.errors.ProtocolError` as the cause.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    AdmissionReject,
    ChannelTimeout,
    DaemonError,
    LeaseExpired,
    ParameterError,
    ProtocolError,
)
from repro.mpc.matmul import matmul_rescale_via_service, matmul_via_service
from repro.mpc.relu import relu_via_service
from repro.mpc.sharing import ArithmeticShares
from repro.ppml.layers import Activation, Linear, Rescale
from repro.ppml.plan import plan_graph


@dataclass
class DaemonConfig:
    """Serving knobs; both parties must construct identical configs."""

    #: Daemon-wide admission window: submissions beyond this many
    #: unfinished requests get a typed AdmissionReject.
    max_inflight: int = 4
    #: Per-session backpressure: a session's (blocking) submit waits
    #: while it has this many unfinished requests in flight.
    session_inflight: int = 2
    #: Seconds an admitted request's result is held for its client.
    lease_ttl_s: float = 30.0
    #: Largest B one request may carry.
    max_batch: int = 8
    #: Bound on every internal wait (prefill, verdicts, online draws).
    request_timeout_s: float = 120.0


#: Base seed of the party-local online masking RNG.
ONLINE_SEED = 0x1207

#: The leader's ``daemon/ctl`` messages (:func:`repro.ot.channel.decode_msg`).
VERDICTS = {
    "stop": {},
    "reject": {"session": str, "inflight": int, "limit": int},
    "admit": {"seq": int, "session": str, "batch": int, "token": str},
}


@dataclass
class Lease:
    """A client's claim on one in-flight request."""

    token: str
    session: str
    ttl_s: float
    expires_at: float = field(default=0.0)

    def __post_init__(self):
        self.renew()

    def renew(self) -> None:
        self.expires_at = time.monotonic() + self.ttl_s

    @property
    def expired(self) -> bool:
        return time.monotonic() > self.expires_at

    @property
    def remaining_s(self) -> float:
        return max(0.0, self.expires_at - time.monotonic())


class DaemonRequest:
    """One admitted request: inputs in, lease out, result share held."""

    def __init__(self, seq, session, inputs, lease, timeout_s, on_claim=None, pipe=None):
        self.seq = seq
        self.session = session
        self.inputs = inputs  # list of B input shares
        self.batch = len(inputs)
        self.pipe = pipe  # built at admission, run by the scheduler thread
        self.lease = lease
        self.timeout_s = timeout_s
        self.output = None  # list of B output shares once done
        self.error = None
        self.claimed = False
        self._on_claim = on_claim  # the daemon forgets a claimed request
        self.expired = False
        self.done = threading.Event()
        #: Seconds the online worker blocked waiting for this request's
        #: first layer -- the cross-request-overlap figure of merit
        #: (near zero in steady state, full layer-0 production cold).
        self.first_wait_s = None
        self.online_s = None

    def result(self, timeout: float = None):
        """Block for the output shares (renewing the lease while it
        waits); raises the request's error, or LeaseExpired if the
        reaper dropped an unclaimed result."""
        deadline = time.monotonic() + (
            self.timeout_s if timeout is None else timeout
        )
        while not self.done.wait(0.05):
            self.lease.renew()
            if time.monotonic() > deadline:
                raise DaemonError(
                    f"request {self.seq} ({self.session}): no result in time"
                )
        if self.error is not None:
            raise self.error
        # Snapshot, claim, THEN check expiry: a reaper that picked this
        # request before ``claimed`` was set may drop the output any time.
        output = self.output
        self.claimed = True
        if self._on_claim is not None:
            self._on_claim(self)
        if self.expired or output is None:
            raise LeaseExpired(
                f"request {self.seq} ({self.session}): lease "
                f"{self.lease.token} expired before the result was claimed",
                session=self.session,
                token=self.lease.token,
            )
        return output


class _PendingSubmit:
    """Follower-side submission awaiting the leader's verdict."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.event = threading.Event()
        self.request = None
        self.reject = None  # (inflight, limit)
        self.error = None  # why the daemon gave up on this submission


def compile_ops(graph) -> list:
    """Flatten the traced graph into executable online ops.

    Returns ``(kind, plan_layer_index, weight_index)`` tuples where the
    plan layer index is the LAST plan layer whose correlations the op
    draws (the ``wait_layer`` gate).  Linear+Rescale pairs fuse into the
    single-allocation-round ``matmul_rescale_via_service`` verb.
    """
    ops = []
    trace = graph.trace
    i = 0
    wi = 0
    while i < len(trace):
        layer = trace[i][0]
        if isinstance(layer, Linear):
            fused = i + 1 < len(trace) and isinstance(trace[i + 1][0], Rescale)
            ops.append(("linear_rescale" if fused else "linear", i + fused, wi))
            wi += 1
            i += 1 + fused
        elif isinstance(layer, Activation) and layer.kind == "relu":
            ops.append(("relu", i, None))
            i += 1
        else:
            raise ParameterError(
                f"cannot run layer {layer.name!r} online; supported: "
                "Linear[, Rescale], Activation('relu')"
            )
    return ops


def _servable_ops(plan, weights) -> list:
    """The plan's online ops, or a ParameterError before any draw."""
    ops = compile_ops(plan.graph)
    fused = any(op[0] == "linear_rescale" for op in ops)
    if plan.demand.unplanned or (fused and plan.fx is None):
        raise ParameterError(
            f"plan {plan.model!r} leaves {dict(plan.demand.unplanned)} unplanned "
            "(Rescale layers need plan_graph(fx=FixedPointConfig))"
        )
    n_linear = sum(op[0] != "relu" for op in ops)
    if len(weights) != n_linear:
        raise ParameterError(
            f"model has {n_linear} linear layers, got {len(weights)} weight shares"
        )
    return ops


def run_online(plan, session, weights, inputs, rng, wait_layer=None) -> list:
    """One party's online phase of a planned graph: B >= 1 input shares
    in, B output shares out -- the one place the online verbs are
    sequenced.

    Linear layers draw per input, ReLUs fuse the batch into one draw
    sequence (linear demand, one round).  Each op first calls
    ``wait_layer(gate)`` (:meth:`PipelinedPrefill.wait_layer`; nothing
    after an all-at-once prefill) and runs in an ``online.layer`` span,
    in the truncation format the plan was priced in.
    """
    ops = _servable_ops(plan, weights)
    tracer = session.service.tracer
    acts = list(inputs)
    for kind, gate, wi in ops:
        if wait_layer is not None:
            wait_layer(gate)
        with tracer.span("online.layer", cat="online", layer=gate, op=kind):
            if kind == "linear_rescale":
                acts = [
                    matmul_rescale_via_service(session, a, weights[wi], plan.fx, rng=rng)
                    for a in acts
                ]
            elif kind == "linear":
                acts = [matmul_via_service(session, a, weights[wi]) for a in acts]
            else:  # relu, fused across the batch
                shape = acts[0].shape
                flat = np.concatenate([a.reshape(-1) for a in acts])
                r, _ = relu_via_service(session, ArithmeticShares(flat, plan.bits), rng)
                parts = np.split(r.values.astype(np.uint64), len(acts))
                acts = [part.reshape(shape) for part in parts]
    return acts


class InferenceDaemon:
    """One party's half of the persistent serving daemon.

    Construct on both parties with the same graph/config and this
    party's weight shares, ``start()`` after the service is running,
    then ``submit``/``result`` per session.  ``stop()`` drains in-flight
    work.
    """

    def __init__(self, service, graph, weights, fx=None, cfg: DaemonConfig = None):
        self.service = service
        self.party = service.party
        self.cfg = cfg or DaemonConfig()
        self.plan = plan_graph(graph, bits=service.tuning.ring_bits, fx=fx)
        self.weights = list(weights)
        _servable_ops(self.plan, self.weights)  # fail here, not on request 0
        self._ctl = service.mux.sub("daemon/ctl")
        self._pipe_ch = service.mux.sub("daemon/pipe")
        self._session = service.session("daemon")
        self._lock = threading.Lock()
        self._seq = 0
        self._requests: dict = {}  # seq -> DaemonRequest (live)
        self._sess_slots: dict = {}  # session -> Semaphore
        self._pending: dict = {}  # follower: session -> deque[_PendingSubmit]
        self._pending_cond = threading.Condition(self._lock)
        self._failure = None  # follower: why its control stream gave up
        self._prefill_q: deque = deque()
        self._online_q: deque = deque()
        self._q_cond = threading.Condition(self._lock)
        #: Where the next request's stream positions start: the last
        #: pipeline's ``end`` (None: the leader measures its own).
        self._start = None
        self._closing = False
        self._stopped = threading.Event()
        self._threads: list = []
        # Counters (surfaced via the service metrics registry).
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.expired_leases = 0
        self.attaches = 0
        self.batch_items = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "InferenceDaemon":
        self.plan._validate_service(self.service)
        self.plan._ensure_pools(self.service)
        self.service.metrics.add_collector(f"daemon/p{self.party}", self._collect)
        targets = [self._schedule_loop, self._online_loop, self._reaper_loop]
        if self.party != 0:
            targets.append(self._ctl_loop)
        for fn in targets:
            t = threading.Thread(
                target=fn, name=f"daemon-p{self.party}-{fn.__name__}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self, timeout: float = None) -> None:
        """Drain in-flight requests, then shut the daemon down.

        The leader announces the shutdown on ``daemon/ctl`` so the
        follower's daemon stops at the same point in the request
        stream.
        """
        timeout = self.cfg.request_timeout_s if timeout is None else timeout
        deadline = time.monotonic() + timeout
        with self._lock:
            live = [r for r in self._requests.values() if not r.done.is_set()]
        for req in live:
            req.done.wait(max(0.0, deadline - time.monotonic()))
        if self.party == 0:
            self._ctl.send_msg("stop")
            self._stopped.set()
        else:
            # The follower's ctl loop sets the event on the leader's
            # stop announcement; requests admitted before it are
            # already drained above.
            self._stopped.wait(max(0.0, deadline - time.monotonic()))
        with self._q_cond:
            self._closing = True
            self._q_cond.notify_all()
        for t in self._threads:
            t.join(max(0.1, deadline - time.monotonic()))

    # -- client surface ------------------------------------------------------
    def _normalize_inputs(self, x_share) -> list:
        inputs = x_share if isinstance(x_share, (list, tuple)) else [x_share]
        if not 1 <= len(inputs) <= self.cfg.max_batch:
            raise ParameterError(
                f"batch of {len(inputs)} outside 1..{self.cfg.max_batch}"
            )
        want = tuple(self.plan.graph.input_shape)
        for arr in inputs:
            if tuple(arr.shape) != want:
                raise ParameterError(
                    f"input shape {tuple(arr.shape)} != model input {want}"
                )
        return [np.asarray(a, dtype=np.uint64) for a in inputs]

    def _session_slot(self, session: str) -> threading.Semaphore:
        with self._lock:
            slot = self._sess_slots.get(session)
            if slot is None:
                slot = threading.Semaphore(self.cfg.session_inflight)
                self._sess_slots[session] = slot
            return slot

    def submit(self, session: str, x_share) -> DaemonRequest:
        """Submit one request (input share, or a list of B shares).

        Blocks under per-session backpressure; raises AdmissionReject
        when the daemon-wide window is full.  Both parties must submit
        per-session requests in the same program order -- the same
        contract as every paired session verb.
        """
        if self._closing:
            raise DaemonError("daemon is stopping")
        inputs = self._normalize_inputs(x_share)
        slot = self._session_slot(session)
        if not slot.acquire(timeout=self.cfg.request_timeout_s):
            raise DaemonError(
                f"session {session!r}: backpressure wait exceeded "
                f"{self.cfg.request_timeout_s}s"
            )
        try:
            if self.party == 0:
                return self._submit_leader(session, inputs)
            return self._submit_follower(session, inputs)
        except BaseException:
            slot.release()
            raise

    def _submit_leader(self, session: str, inputs: list) -> DaemonRequest:
        tracer = self.service.tracer
        pipe = self._pipeline(len(inputs))
        with self._lock:
            inflight = self.admitted - self.completed - self.failed
            if inflight >= self.cfg.max_inflight:
                self.rejected += 1
                self._ctl.send_msg(
                    "reject", session=session, inflight=inflight,
                    limit=self.cfg.max_inflight,
                )
                if tracer.enabled:
                    tracer.instant(
                        "request.admit", cat="daemon", session=session,
                        verdict="reject", inflight=inflight,
                    )
                raise AdmissionReject(
                    f"session {session!r}: {inflight} requests in flight "
                    f"(limit {self.cfg.max_inflight})",
                    inflight=inflight,
                    limit=self.cfg.max_inflight,
                )
            seq = self._seq
            self._seq += 1
            token = f"lease-{seq}-{os.urandom(4).hex()}"
            self._ctl.send_msg(
                "admit", seq=seq, session=session, batch=len(inputs), token=token
            )
            req = self._admit_locked(seq, session, inputs, token, pipe)
        if tracer.enabled:
            tracer.instant(
                "request.admit", cat="daemon", session=session,
                verdict="admit", seq=seq, batch=req.batch,
            )
        return req

    def _submit_follower(self, session: str, inputs: list) -> DaemonRequest:
        pending = _PendingSubmit(inputs)
        with self._lock:
            if self._failure is not None:
                raise DaemonError(
                    f"session {session!r}: daemon control stream failed: {self._failure}"
                ) from self._failure
            self._pending.setdefault(session, deque()).append(pending)
            self._pending_cond.notify_all()
        if not pending.event.wait(self.cfg.request_timeout_s):
            raise DaemonError(
                f"session {session!r}: no admission verdict from the leader "
                f"within {self.cfg.request_timeout_s}s"
            )
        if pending.error is not None:
            raise DaemonError(
                f"session {session!r}: submission abandoned: {pending.error}"
            ) from pending.error
        if pending.reject is not None:
            inflight, limit = pending.reject
            raise AdmissionReject(
                f"session {session!r}: {inflight} requests in flight "
                f"(limit {limit})",
                inflight=inflight,
                limit=limit,
            )
        return pending.request

    def _pipeline(self, batch: int):
        """A request's pipeline, built before admission takes the
        daemon lock (pool creation takes the service's own)."""
        return self.plan.prefill_pipelined(
            self.service,
            timeout=self.cfg.request_timeout_s,
            batch=batch,
            channel=self._pipe_ch,
        )

    def _admit_locked(self, seq, session, inputs, token, pipe) -> DaemonRequest:
        lease = Lease(token, session, self.cfg.lease_ttl_s)
        req = DaemonRequest(
            seq, session, inputs, lease, self.cfg.request_timeout_s, self._forget, pipe
        )
        self._requests[seq] = req
        self.admitted += 1
        self.batch_items += req.batch
        self._prefill_q.append(req)
        self._online_q.append(req)
        self._q_cond.notify_all()
        return req

    def _forget(self, req: DaemonRequest) -> None:
        """Drop a claimed request (and with it its pipeline's events
        and schedule) from the live table; from here on its
        lease is gone, as after expiry."""
        with self._lock:
            self._requests.pop(req.seq, None)

    def attach(self, session: str, token: str) -> DaemonRequest:
        """Re-attach a (re)connected client to its in-flight request by
        lease token, renewing the lease."""
        with self._lock:
            for req in self._requests.values():
                if req.session == session and req.lease.token == token:
                    if req.expired:
                        break
                    req.lease.renew()
                    self.attaches += 1
                    return req
        raise LeaseExpired(
            f"session {session!r}: no live lease {token!r} to attach to",
            session=session,
            token=token,
        )

    def resume_state(self) -> dict:
        """The service's resume-handshake state plus the live lease
        table -- wire this (instead of ``service.resume_state``) as the
        ReconnectingChannel ``state_provider``.  Reporting a lease also
        RENEWS it: the handshake only runs while the transport is
        re-establishing, i.e. exactly when the dropped client is coming
        back and must not lose its in-flight request to the reaper.
        """
        state = self.service.resume_state()
        leases = {}
        with self._lock:
            for req in self._requests.values():
                if req.expired:
                    continue
                req.lease.renew()
                leases[req.session] = {
                    "token": req.lease.token,
                    "seq": req.seq,
                    "expires_in_s": round(req.lease.remaining_s, 3),
                }
        state["leases"] = leases
        return state

    def inflight(self) -> int:
        with self._lock:
            return self.admitted - self.completed - self.failed

    # -- follower control stream ---------------------------------------------
    def _ctl_loop(self) -> None:
        """Follower: apply the leader's verdicts in order.  However the
        loop ends -- the leader's stop, a dead or malformed control
        stream -- ``stop()`` has nothing left to wait for."""
        try:
            self._apply_ctl()
        finally:
            self._stopped.set()

    def _apply_ctl(self) -> None:
        while not self._closing:
            try:
                msg = self._ctl.recv_msg(VERDICTS, timeout=0.25)
            except ChannelTimeout:
                continue
            except ProtocolError as exc:
                self._fail_all(exc)
                return
            except Exception as exc:  # noqa: BLE001 - crossing a thread
                if not self._closing:
                    self._fail_all(DaemonError(f"daemon ctl stream died: {exc!r}"))
                return
            op = msg["op"]
            if op == "stop":
                return
            pending = self._pop_pending(msg["session"])
            if pending is None:
                self._fail_all(
                    DaemonError(
                        f"no local submission for session {msg['session']!r} "
                        f"verdict within {self.cfg.request_timeout_s}s"
                    )
                )
                return
            if op == "reject":
                with self._lock:
                    self.rejected += 1
                pending.reject = (msg["inflight"], msg["limit"])
                pending.event.set()
                continue
            if len(pending.inputs) != msg["batch"]:
                exc = DaemonError(
                    f"session {msg['session']!r}: leader admitted batch "
                    f"{msg['batch']}, local submission has "
                    f"{len(pending.inputs)}"
                )
                # Already popped, so _fail_all cannot reach this one.
                pending.error = exc
                pending.event.set()
                self._fail_all(exc)
                return
            pipe = self._pipeline(msg["batch"])
            with self._lock:
                req = self._admit_locked(
                    msg["seq"], msg["session"], pending.inputs, msg["token"], pipe
                )
            if self.service.tracer.enabled:
                self.service.tracer.instant(
                    "request.admit", cat="daemon", session=msg["session"],
                    verdict="admit", seq=msg["seq"], batch=req.batch,
                )
            pending.request = req
            pending.event.set()

    def _pop_pending(self, session: str):
        deadline = time.monotonic() + self.cfg.request_timeout_s
        with self._pending_cond:
            while True:
                q = self._pending.get(session)
                if q:
                    return q.popleft()
                if self._closing or time.monotonic() > deadline:
                    return None
                self._pending_cond.wait(0.1)

    # -- worker threads ------------------------------------------------------
    def _next(self, q: deque):
        with self._q_cond:
            while True:
                if q:
                    return q.popleft()
                if self._closing:
                    return None
                self._q_cond.wait(0.1)

    def _schedule_loop(self) -> None:
        """Run each request's pipeline on this thread, in admission
        order.  Request r+1's pipeline starts the moment r's PRODUCTION
        is done -- r's online tail still draining -- which is the whole
        cross-request overlap -- at the stream positions where r's end.
        After a failed pipeline the leader measures them afresh."""
        while True:
            req = self._next(self._prefill_q)
            if req is None:
                return
            try:
                req.pipe.run(self._start)
                self._start = req.pipe.end
            except BaseException as exc:  # noqa: BLE001 - crossing a thread
                self._start = None
                self._finish_request(req, error=exc)
                if self._closing:
                    return

    def _online_loop(self) -> None:
        """Execute admitted requests' online phases, FIFO."""
        while True:
            req = self._next(self._online_q)
            if req is None:
                return
            if req.error is not None:
                continue  # scheduler already failed it
            tracer = self.service.tracer
            t0 = time.monotonic()
            try:
                with tracer.span(
                    "request.online", cat="daemon",
                    seq=req.seq, session=req.session, batch=req.batch,
                ):
                    req.output = self._run_online(req)
                req.online_s = time.monotonic() - t0
                self._finish_request(req)
            except BaseException as exc:  # noqa: BLE001 - crossing a thread
                self._finish_request(req, error=exc)

    def _run_online(self, req: DaemonRequest) -> list:
        """One request's online phase, gated on its own pipeline."""
        rng = np.random.default_rng(ONLINE_SEED + 1000003 * req.seq + self.party)

        def wait_layer(gate):
            t0 = time.monotonic()
            req.pipe.wait_layer(gate, self.cfg.request_timeout_s)
            if req.first_wait_s is None:
                req.first_wait_s = time.monotonic() - t0

        return run_online(
            self.plan, self._session, self.weights, req.inputs, rng, wait_layer
        )

    def _finish_request(self, req: DaemonRequest, error=None) -> None:
        if req.done.is_set():
            return
        req.error = error
        with self._lock:
            if error is None:
                self.completed += 1
            else:
                self.failed += 1
        slot = self._session_slot(req.session)
        slot.release()
        req.done.set()

    def _fail_all(self, exc: Exception) -> None:
        with self._lock:
            self._failure = exc
            live = [r for r in self._requests.values() if not r.done.is_set()]
            pendings = [p for q in self._pending.values() for p in q]
            self._pending.clear()
        for req in live:
            self._finish_request(req, error=exc)
        for p in pendings:
            p.error = exc
            p.event.set()

    def _reaper_loop(self) -> None:
        """Drop unclaimed results whose lease lapsed (``lease.expire``)."""
        tick = max(0.05, min(1.0, self.cfg.lease_ttl_s / 4))
        while not self._stopped.wait(tick):
            if self._closing:
                return
            with self._lock:
                stale = [
                    r
                    for r in self._requests.values()
                    if r.done.is_set()
                    and not r.claimed
                    and not r.expired
                    and r.lease.expired
                ]
            for req in stale:
                req.expired = True
                req.output = None
                with self._lock:
                    self.expired_leases += 1
                    self._requests.pop(req.seq, None)
                if self.service.tracer.enabled:
                    self.service.tracer.instant(
                        "lease.expire", cat="daemon",
                        seq=req.seq, session=req.session, token=req.lease.token,
                    )

    # -- observability -------------------------------------------------------
    def _collect(self) -> dict:
        with self._lock:
            return {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "inflight": self.admitted - self.completed - self.failed,
                "expired_leases": self.expired_leases,
                "attaches": self.attaches,
                "batch_items": self.batch_items,
            }
