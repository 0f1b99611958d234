"""Preprocessing planner: exact correlation demand for a model graph.

Ironman's premise is that COT correlations are *preprocessing*: the
accelerator mass-produces them ahead of time and the online phase
merely consumes them (Section 5.2, Figure 16).  This module is the
bridge from a model to that contract: walk a :class:`repro.ppml.layers.Graph`
trace, charge every layer its exact correlation demand and drive a
:class:`repro.runtime.CorrelationService` to prefill its pools before
the online phase starts.

What a layer consumes is not restated here.  Every online verb
declares its ordered ``(pool kind, key, count)`` list once, beside
itself (:func:`repro.mpc.relu.relu_draws`,
:func:`repro.mpc.matmul.matmul_draws`,
:func:`repro.mpc.truncation.trunc_draws`, ...); the session draws that
list (:meth:`repro.runtime.service.ServiceSession.draw`) and the
planner sums it, so a prefilled service serves the whole online phase
without a single production stall by construction.  What derived
production consumes *internally* comes from the recipe table
(:func:`_expand`).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ParameterError, ServiceError, WaitTimeout
from repro.mpc.matmul import matmul_draws
from repro.mpc.maxpool import max_draws
from repro.mpc.relu import relu_draws
from repro.mpc.truncation import FixedPointConfig, trunc_draws
from repro.ppml.layers import Conv2d, Graph, Linear
from repro.runtime.recipes import BY_KIND, RECIPES


@dataclass
class CorrelationDemand:
    """Exact correlation counts one workload draws from the service.

    ``draws`` sums the workload's ``*_draws`` lists into one counter
    over ``(pool kind, key)``, in shared-pool names (``cot/fwd`` is the
    direction where party 0 is the COT sender); ``unplanned`` records
    nonlinear/linear work with no executable OT protocol here yet
    (GELU, softmax, layernorm, raw attention MACs) so a plan is honest
    about its coverage.
    """

    draws: Counter = field(default_factory=Counter)
    unplanned: Counter = field(default_factory=Counter)

    def add(self, requests: list, times: int = 1) -> "CorrelationDemand":
        """Charge one verb's draw list, ``times`` over."""
        for kind, key, count in requests:
            self.draws[kind, key] += count * times
        return self

    def merge(self, other: "CorrelationDemand") -> "CorrelationDemand":
        self.draws.update(other.draws)
        self.unplanned.update(other.unplanned)
        return self

    def drawn(self) -> list:
        """``(recipe, pool key, count)`` of every pool drawn from, in
        the recipe table's order."""
        drawn = [
            (BY_KIND[kind], key, count)
            for (kind, key), count in self.draws.items()
            if count > 0
        ]
        return sorted(drawn, key=lambda item: RECIPES.index(item[0]))

    def total_cots(self, ring_bits: int) -> int:
        """All raw COTs behind this demand (consumer draws + derived).

        Derived kinds cost what their recipes' inputs say: bit triples
        one COT per direction, matrix triples ``matmul_cots`` from a single
        direction, truncation pairs their forward COTs plus the bit
        triples their generation consumes.
        """
        _, cots = _expand(self, ring_bits, every_choice=False)
        drawn = sum(n for recipe, _, n in self.drawn() if recipe.direction is not None)
        return drawn + sum(cots.values())

    def as_pool_targets(self) -> dict:
        """Pool name -> item count, the :meth:`CorrelationService.prefill`
        input and the shape of ``service.session_draw_counts()``."""
        return {recipe.pool_name(*key): n for recipe, key, n in self.drawn()}


def layer_demand(
    layer,
    in_shape: tuple,
    out_shape: tuple,
    bits: int,
    fx: FixedPointConfig = None,
    trunc_mode: str = "exact",
) -> CorrelationDemand:
    """Correlation demand of one applied layer: the draw list of the
    verb that executes it.

    Linear/Conv2d become matrix-triple shapes (conv via im2col, one
    triple per group); ReLU-family activations and MaxPool comparisons
    charge their verbs' draws; Rescale layers charge truncation draws
    when a :class:`FixedPointConfig` is given; every other cost lands
    in ``unplanned`` so coverage gaps are visible, not silent.
    """
    demand = CorrelationDemand()
    if isinstance(layer, Linear):
        m = math.prod(in_shape[:-1]) if len(in_shape) > 1 else 1
        return demand.add(matmul_draws(m, in_shape[-1], layer.out_features))
    if isinstance(layer, Conv2d):
        c = in_shape[0]
        _, oh, ow = out_shape
        return demand.add(
            matmul_draws(
                oh * ow,
                (c // layer.groups) * layer.kernel * layer.kernel,
                layer.out_channels // layer.groups,
            ),
            times=layer.groups,
        )
    _, cost = layer.apply(in_shape)
    for kind, count in cost.nonlinear.items():
        if kind == "relu":
            demand.add(relu_draws(count, bits))
        elif kind == "maxpool_cmp":
            demand.add(max_draws(count, bits))
        elif kind == "trunc" and fx is not None:
            if fx.bits != bits:
                raise ParameterError(
                    f"fixed-point config is {fx.bits}-bit but the plan ring is {bits}-bit"
                )
            demand.add(trunc_draws(count, fx, trunc_mode))
        else:
            # relu6 (two comparisons, no service protocol yet), gelu,
            # softmax, layernorm, avgpool truncation: honest gaps.
            demand.unplanned[kind] += count
    if cost.macs:
        demand.unplanned["macs"] += cost.macs
    return demand


def _expand(demand: CorrelationDemand, bits: int, every_choice: bool = True) -> tuple:
    """Walk the recipe inputs behind a demand: ``(produce, cots)``.

    ``produce`` is the pool production the demand requires, per kind:
    consumer draws (``as_pool_targets``) plus every derived item that
    production consumes *internally* -- the bit triples
    truncation-pair generation eats, which the worker must have
    produced before the TPRC batch can run.  ``cots`` is the raw COTs
    all that derived production reserves internally, per direction.
    A recipe that picks ONE of its inputs by stock at runtime (matrix
    triples) is charged to every candidate when ``every_choice``, else
    to the first.
    """
    produce = demand.as_pool_targets()
    cots = {}
    work = demand.drawn()
    for recipe, key, count in work:  # grows while walking: derived-of-derived
        inputs = recipe.inputs(bits, *key)
        if recipe.choose is not None and not every_choice:
            inputs = inputs[:1]
        for src, per in inputs:
            source = BY_KIND[src]
            if source.direction is not None:
                cots[src] = cots.get(src, 0) + count * per
            else:
                produce[src] = produce.get(src, 0) + count * per
                work.append((source, (), count * per))
    return produce, cots


def _layer_produce_counts(demand: CorrelationDemand, bits: int) -> dict:
    """Pool production one layer's demand requires, per kind."""
    return _expand(demand, bits)[0]


def _layer_internal_cots(demand: CorrelationDemand, bits: int) -> dict:
    """Raw COTs one layer's *derived production* reserves internally.

    A matrix triple draws its whole demand from ONE direction chosen by
    stock at runtime, so it is charged to BOTH directions here --
    conservative by at most one layer's matrix demand in the unused
    direction, which the extend batch quantum absorbs.  The pipeline
    adds this margin to the raw COT watermark *before* scheduling the
    layer's derived production, so internal reserves can never eat the
    stock that keeps already ready layers' consumer draws warm.
    """
    return _expand(demand, bits)[1]


@dataclass
class PreprocessingPlan:
    """A model's full preprocessing schedule: per-layer + total demand,
    plus what :func:`repro.runtime.daemon.run_online` needs to execute
    it in the mode it was priced in (graph, fixed-point format, mode)."""

    model: str
    bits: int
    demand: CorrelationDemand
    per_layer: list  # (layer name, CorrelationDemand)
    graph: Graph = None
    fx: FixedPointConfig = None
    trunc_mode: str = "exact"

    def pool_targets(self) -> dict:
        return self.demand.as_pool_targets()

    def _validate_service(self, service) -> None:
        if service.tuning.ring_bits != self.bits:
            raise ParameterError(
                f"plan is for {self.bits}-bit rings but the service produces "
                f"{service.tuning.ring_bits}-bit triples"
            )

    def _ensure_pools(self, service) -> None:
        """Create every pool the plan draws from (and, through the
        service's factory, the pools those are made of)."""
        for kind, key in self.demand.draws:
            service.pool(kind, key)

    def prefill(self, service, timeout: float = None, one_shot: bool = False) -> None:
        """Drive one party's service through the preprocessing phase.

        Ensures every pool the plan draws from exists, then blocks until
        all planned correlations are produced ahead.  Both parties call
        this (leader raises watermarks, follower waits for the mirrored
        production); afterwards the online phase runs stall-free.
        ``one_shot=True`` restores the pre-plan watermarks once the
        targets are met, so a plan served exactly once does not leave
        inflated refill targets behind.
        """
        self._validate_service(service)
        self._ensure_pools(service)
        service.prefill(self.pool_targets(), timeout, one_shot=one_shot)

    def layer_schedule(self) -> tuple:
        """Per-layer production targets for the pipeline.

        Returns ``(cum_derived, cum_cot, internal_cot)``: for each
        layer index, the total items every derived pool kind must have
        produced for layers ``0..i`` inclusive (consumer draws plus the
        bit triples TPRC generation consumes internally); the
        cumulative raw consumer COT draws per direction; and that
        single layer's internal raw-COT production demand
        (:func:`_layer_internal_cots`).  Raw COT stock is managed by
        level watermarks rather than stream positions because extends
        arrive in fixed-size batches and derived production also feeds
        on them.
        """
        cum_derived, cum_cot, internal_cot = [], [], []
        total_d, total_c = {}, {}
        for _, demand in self.per_layer:
            for kind, count in _layer_produce_counts(demand, self.bits).items():
                if kind.startswith("cot/"):
                    total_c[kind] = total_c.get(kind, 0) + count
                else:
                    total_d[kind] = total_d.get(kind, 0) + count
            cum_derived.append(dict(total_d))
            cum_cot.append(dict(total_c))
            internal_cot.append(_layer_internal_cots(demand, self.bits))
        return cum_derived, cum_cot, internal_cot

    def prefill_pipelined(
        self,
        service,
        timeout: float = None,
        tag: str = None,
        batch: int = 1,
        channel=None,
        draws_baseline: dict = None,
    ) -> "PipelinedPrefill":
        """Start the streaming preprocessing pipeline (non-blocking).

        Both parties call this with their service, then run the online
        phase layer by layer, gating each layer's draws on
        :meth:`PipelinedPrefill.wait_layer`.  Layer i's online rounds
        run while the worker produces layer i+1's correlations in the
        background -- the software analogue of Ironman's schedule
        overlap (Fig. 8) -- so time-to-first-layer-online is one
        layer's preprocessing, not the whole plan's.  Call
        :meth:`PipelinedPrefill.finish` after the online phase to
        restore steady-state watermarks and surface worker errors.

        ``batch`` scales every per-layer produce target and raw-COT
        watermark by B: the online phase then pushes B inputs through
        the same plan (B matrix-triple draws per linear layer, B-times
        the elements through each fused nonlinear draw).  ``channel``
        reuses an existing sub-channel for the in-band baseline
        exchange instead of allocating a fresh ``pipe/<plan>`` tag --
        long-lived daemons start many pipelines and per-pipeline tags
        would leak mux queues.  ``draws_baseline`` overrides the live
        per-kind session-draw snapshot the raw-COT watermarks are
        computed against: a pipeline overlapping a previous request's
        online tail passes the PLANNED cumulative floor instead, so the
        tail's still-draining draws are not mistaken for its own.
        """
        self._validate_service(service)
        self._ensure_pools(service)
        return PipelinedPrefill(
            self, service, timeout, tag, batch, channel, draws_baseline
        )

    def summary_rows(self) -> list:
        """Printable plan table, header row first: one column per pool
        kind the plan draws from, one row per layer.  A keyed kind's
        cell lists ``key: count`` per pool (``4x12x6: 1``)."""
        kinds = list(dict.fromkeys(recipe.kind for recipe, _, _ in self.demand.drawn()))
        rows = [["layer", *kinds]]
        for name, demand in self.per_layer:
            cells = {kind: [] for kind in kinds}
            for recipe, key, count in demand.drawn():
                label = "x".join(map(str, key))
                cells[recipe.kind].append(f"{label}: {count}" if key else str(count))
            rows.append([name, *(", ".join(cells[kind]) or "-" for kind in kinds)])
        return rows


def plan_graph(
    graph: Graph,
    bits: int = 32,
    fx: FixedPointConfig = None,
    trunc_mode: str = "exact",
) -> PreprocessingPlan:
    """Walk a traced model graph into a :class:`PreprocessingPlan`.

    ``bits`` is the arithmetic ring width of the activations (and so of
    every ring/matrix triple); it must match the serving service's
    ``ServiceTuning.ring_bits``.  ``fx`` prices the graph's Rescale
    layers as executable truncation demand (``trunc_mode`` selecting
    pair/exact); without it they surface as unplanned.
    """
    total = CorrelationDemand()
    per_layer = []
    for layer, in_shape, out_shape in graph.trace:
        demand = layer_demand(layer, in_shape, out_shape, bits, fx, trunc_mode)
        per_layer.append((layer.name, demand))
        total.merge(demand)
    return PreprocessingPlan(graph.name, bits, total, per_layer, graph, fx, trunc_mode)


class PipelinedPrefill:
    """Streaming preprocessing: layer-by-layer production overlapping
    the online phase.

    Created by :meth:`PreprocessingPlan.prefill_pipelined` on BOTH
    parties.  A background thread walks the plan's layers in order; for
    each layer it schedules exactly that layer's correlation production
    (absolute produce targets for derived pools, cumulative consumer
    watermarks for raw COTs), waits for it to land, and marks the layer
    ready -- then immediately moves on to the next layer while the
    caller runs the current layer's online rounds.  The online phase
    gates each layer's draws on :meth:`wait_layer`, so it starts after
    ONE layer's preprocessing instead of the whole plan's, and never
    stalls a pool afterwards.

    Determinism: absolute targets are computed from the leader's pool
    baselines and shipped to the follower in-band over a dedicated
    ``pipe/<plan>`` sub-channel (production streams are mirrored
    command-by-command, so leader stream positions are valid on both
    sides).  The follower waits on the same produced counts; only the
    leader schedules.

    The pipeline assumes the planned workload is the dominant consumer
    while it runs (same contract as ``prefill``): concurrent unplanned
    sessions may re-introduce stalls, never wrong results.
    """

    def __init__(
        self,
        plan: PreprocessingPlan,
        service,
        timeout: float,
        tag: str,
        batch: int = 1,
        channel=None,
        draws_baseline: dict = None,
    ):
        if batch < 1:
            raise ParameterError(f"batch must be >= 1, got {batch}")
        self.plan = plan
        self.service = service
        self.batch = batch
        self.timeout = (
            service.tuning.take_timeout_s if timeout is None else timeout
        )
        self.error = None
        self.n_layers = len(plan.per_layer)
        self._cum_derived, self._cum_cot, self._internal_cot = plan.layer_schedule()
        if batch > 1:
            # Demand counts are linear in element count, so a B-input
            # request through the same shapes is exactly B-times every
            # per-layer target and watermark.
            scale = lambda seq: [  # noqa: E731
                {kind: count * batch for kind, count in layer.items()}
                for layer in seq
            ]
            self._cum_derived = scale(self._cum_derived)
            self._cum_cot = scale(self._cum_cot)
            self._internal_cot = scale(self._internal_cot)
        self._ready = [threading.Event() for _ in range(self.n_layers)]
        self._t0 = time.monotonic()
        self._ready_elapsed = [None] * self.n_layers
        self._channel = (
            channel if channel is not None
            else service.mux.sub(tag or f"pipe/{plan.model}")
        )
        self._draws_baseline = (
            service.session_draw_counts()
            if draws_baseline is None
            else dict(draws_baseline)
        )
        self._saved_cot_marks = None
        self._finished = False
        if service.party == 0:
            kinds = set()
            for layer in self._cum_cot:
                kinds.update(layer)
            for layer in self._internal_cot:
                kinds.update(layer)
            # A forward-only service has no cot/rev pool; the internal
            # margin charged to the missing direction simply cannot be
            # reserved there (matrix production falls back to cot/fwd,
            # whose own charge already covers it).
            self._saved_cot_marks = {
                kind: service.pools[kind].watermarks
                for kind in sorted(kinds)
                if kind in service.pools
            }
        self._thread = threading.Thread(
            target=self._run,
            name=f"pipelined-prefill-p{service.party}",
            daemon=True,
        )
        self._thread.start()

    # -- background production driver ---------------------------------------
    def _run(self) -> None:
        try:
            svc = self.service
            derived_kinds = sorted(self._cum_derived[-1]) if self._cum_derived else []
            if svc.party == 0:
                baseline = {
                    kind: svc.pools[kind].produced for kind in derived_kinds
                }
                self._channel.send_bytes(json.dumps(baseline).encode())
            else:
                baseline = json.loads(
                    self._channel.recv_bytes(timeout=self.timeout).decode()
                )
            for i in range(self.n_layers):
                deadline = time.monotonic() + self.timeout
                with svc.tracer.span(
                    "prefill.layer", cat="prefill",
                    layer=i, op=self.plan.per_layer[i][0],
                ):
                    if svc.party == 0:
                        # Raw COT stock first: before this layer's derived
                        # production may reserve raw COTs internally, the
                        # level must cover (a) every already-ready layer's
                        # consumer demand not yet drawn -- so the overlapped
                        # online phase keeps finding produced ranges -- plus
                        # (b) this layer's internal reserves.  The watermark
                        # is re-set (possibly LOWERED) each layer from the
                        # live draw counters, so extends track the plan
                        # just-in-time instead of front-loading the total.
                        for kind, level in self._cot_levels(i).items():
                            svc._raise_if_failed()
                            pool = svc.pools[kind]
                            low = max(level, self._saved_cot_marks[kind][0])
                            pool.set_watermarks(low, low)
                            pool.wait_level(low, deadline - time.monotonic())
                    targets = {
                        kind: baseline[kind] + count
                        for kind, count in self._cum_derived[i].items()
                    }
                    if svc.party == 0:
                        svc.raise_produce_targets(targets)
                    for kind, target in targets.items():
                        svc._raise_if_failed()
                        svc.pools[kind].wait_produced(
                            target, deadline - time.monotonic()
                        )
                    self._ready_elapsed[i] = time.monotonic() - self._t0
                    self._ready[i].set()
                if svc.tracer.enabled:
                    svc.tracer.instant(
                        "prefill.ready", cat="prefill",
                        layer=i, elapsed_s=self._ready_elapsed[i],
                    )
        except BaseException as exc:  # noqa: BLE001 - crossing a thread
            self.error = exc

    def _cot_levels(self, i: int) -> dict:
        """Raw-COT level targets before layer i's production starts:
        undrawn consumer demand of layers ``0..i`` (consumers of layer
        i start the moment it is marked ready) plus layer i's internal
        production reserves."""
        levels = {}
        kinds = (set(self._cum_cot[i]) | set(self._internal_cot[i])) & set(
            self._saved_cot_marks
        )
        draws = self.service.session_draw_counts()
        for kind in sorted(kinds):
            drawn = draws.get(kind, 0) - self._draws_baseline.get(
                kind, 0
            )
            undrawn = max(0, self._cum_cot[i].get(kind, 0) - drawn)
            levels[kind] = undrawn + self._internal_cot[i].get(kind, 0)
        return levels

    # -- caller side ---------------------------------------------------------
    def _check_failed(self) -> None:
        if self.error is not None:
            raise ServiceError(
                f"pipelined prefill failed: {self.error!r}"
            ) from self.error
        self.service._raise_if_failed()

    def wait_layer(self, i: int, timeout: float = None) -> None:
        """Block until layers ``0..i`` have their correlations pooled."""
        if not 0 <= i < self.n_layers:
            raise ParameterError(f"layer index {i} outside plan of {self.n_layers}")
        deadline = time.monotonic() + (
            self.timeout if timeout is None else timeout
        )
        waited = not self._ready[i].is_set()
        start = time.monotonic()
        try:
            while not self._ready[i].wait(0.05):
                self._check_failed()
                if time.monotonic() > deadline:
                    raise WaitTimeout(
                        f"pipelined prefill: layer {i} "
                        f"({self.plan.per_layer[i][0]}) not ready in time",
                        what=f"layer {i} ({self.plan.per_layer[i][0]})",
                    )
        finally:
            if waited:
                tr = self.service.tracer
                if tr.enabled:
                    end = tr.now()
                    tr.complete(
                        "online.wait", end - (time.monotonic() - start), end,
                        cat="stall",
                        layer=i, op=self.plan.per_layer[i][0],
                    )
        self._check_failed()

    def wait_all(self, timeout: float = None) -> None:
        if self.n_layers:
            self.wait_layer(self.n_layers - 1, timeout)

    def ready_elapsed(self, i: int) -> float:
        """Seconds from pipeline start until layer i was ready."""
        return self._ready_elapsed[i]

    def finish(self, timeout: float = None, restore: bool = True) -> None:
        """Join the producer thread and restore steady-state watermarks.

        Call after the online phase: the raised raw-COT consumer
        watermarks drop back to their pre-pipeline values (produce
        targets are absolute, so they are already inert), leaving the
        service in the same steady-state shape a one-shot ``prefill``
        leaves behind.  Idempotent; raises if either the pipeline
        thread or the service worker failed.

        ``restore=False`` skips the watermark restore: a daemon chaining
        pipelines back-to-back must not clobber the marks the NEXT
        request's pipeline already set -- it restores steady-state marks
        once, at shutdown.
        """
        if self._finished:
            self._check_failed()
            return
        self._thread.join(self.timeout if timeout is None else timeout)
        if self._thread.is_alive():
            # Still producing: restoring now would be clobbered by the
            # thread's own per-layer watermark updates.  Leave state
            # untouched so a later finish() can complete the job.
            raise WaitTimeout(
                "pipelined prefill producer did not finish in time",
                what="producer join",
            )
        if restore and self._saved_cot_marks is not None:
            for kind, (low, high) in self._saved_cot_marks.items():
                self.service.pools[kind].set_watermarks(low, high)
        self._finished = True
        self._check_failed()
