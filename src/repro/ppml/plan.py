"""Preprocessing planner: exact correlation demand for a model graph.

Ironman's premise is that COT correlations are *preprocessing*: the
accelerator mass-produces them ahead of time and the online phase
merely consumes them (Section 5.2, Figure 16).  This module is the
bridge from a model to that contract: walk a :class:`repro.ppml.layers.Graph`
trace, charge every layer its exact correlation demand and drive a
:class:`repro.runtime.CorrelationService` to produce it, layer by
layer, as absolute produce targets -- stream positions -- on every pool
the plan reaches (:class:`PipelinedPrefill`, the one preprocessing
driver; :meth:`PreprocessingPlan.prefill` runs it on the calling
thread).  An ad-hoc draw list is prefilled the same way, as a one-layer
plan: ``PreprocessingPlan(name, bits, demand, [(name, demand)])``.

What a layer consumes is not restated here.  Every online verb
declares its ordered ``(pool kind, key, count)`` list once, beside
itself (:func:`repro.mpc.relu.relu_draws`,
:func:`repro.mpc.matmul.matmul_draws`,
:func:`repro.mpc.truncation.trunc_draws`, ...); the session draws that
list (:meth:`repro.runtime.service.ServiceSession.draw`) and the
planner sums it, so a prefilled service serves the whole online phase
without a single production stall by construction.  What derived
production consumes *internally* comes from the recipe table
(:func:`repro.runtime.recipes.expand`).  Every recipe's inputs are
fixed (a matrix triple always draws forward COTs), so the positions a
plan's draws and its derived production reserve are plan constants.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ParameterError, ProtocolError, ServiceError, WaitTimeout
from repro.mpc.matmul import matmul_draws
from repro.mpc.maxpool import max_draws
from repro.mpc.relu import relu_draws
from repro.mpc.truncation import FixedPointConfig, trunc_draws
from repro.ppml.layers import Conv2d, Graph, Linear
from repro.runtime.recipes import BY_KIND, RECIPES, expand


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
        one COT per direction, matrix triples ``matmul_cots`` forward
        COTs.
        """
        wanted = expand(self.drawn(), ring_bits)
        return sum(wanted.get(recipe.kind, 0) for recipe in RECIPES if recipe.direction)

    def as_pool_targets(self) -> dict:
        """Pool name -> item count, the shape of
        ``service.session_draw_counts()``."""
        return {recipe.pool_name(*key): n for recipe, key, n in self.drawn()}


def layer_demand(
    layer,
    in_shape: tuple,
    out_shape: tuple,
    bits: int,
    fx: FixedPointConfig = None,
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
            demand.add(trunc_draws(count, fx))
        else:
            # relu6 (two comparisons, no service protocol yet), gelu,
            # softmax, layernorm, avgpool truncation: honest gaps.
            demand.unplanned[kind] += count
    if cost.macs:
        demand.unplanned["macs"] += cost.macs
    return demand


@dataclass
class PreprocessingPlan:
    """A model's full preprocessing schedule: per-layer + total demand,
    plus what :func:`repro.runtime.daemon.run_online` needs to execute
    it as it was priced (graph, fixed-point format)."""

    model: str
    bits: int
    demand: CorrelationDemand
    per_layer: list  # (layer name, CorrelationDemand)
    graph: Graph = None
    fx: FixedPointConfig = None

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

    def prefill(self, service, timeout: float = None) -> None:
        """Drive one party's service through the whole preprocessing
        phase: :meth:`prefill_pipelined` run on this thread.  Both
        parties call this; afterwards the online phase runs stall-free.
        """
        self.prefill_pipelined(service, timeout).run()

    def cumulative_production(self) -> list:
        """Per layer i, pool name -> items production adds for layers
        ``0..i``: their draws expanded through the recipes' inputs
        (:func:`repro.runtime.recipes.expand`), raw COTs included."""
        out, total = [], {}
        for _, demand in self.per_layer:
            for kind, count in expand(demand.drawn(), self.bits).items():
                total[kind] = total.get(kind, 0) + count
            out.append(dict(total))
        return out

    def prefill_pipelined(
        self,
        service,
        timeout: float = None,
        batch: int = 1,
        channel=None,
    ) -> "PipelinedPrefill":
        """The streaming preprocessing pipeline of this plan on one
        party, not yet running: :meth:`PipelinedPrefill.run` drives it
        on the calling thread.

        A caller that overlaps the online phase with production runs
        the pipeline on a thread of its own and gates each layer's
        draws on :meth:`PipelinedPrefill.wait_layer`.  Layer i's online
        rounds then run while layer i+1's correlations are produced --
        the software analogue of Ironman's schedule overlap (Fig. 8) --
        so time-to-first-layer-online is one layer's preprocessing, not
        the whole plan's.

        ``batch`` scales every per-layer produce target by B: the online
        phase then pushes B inputs through the same plan (B
        matrix-triple draws per linear layer, B-times the elements
        through each fused nonlinear draw).  ``channel`` reuses an
        existing sub-channel for the in-band start exchange instead of
        allocating a fresh ``pipe/<plan>`` tag -- long-lived daemons
        start many pipelines and per-pipeline tags would leak mux
        queues.
        """
        self._validate_service(service)
        self._ensure_pools(service)
        return PipelinedPrefill(self, service, timeout, batch, channel)

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
) -> PreprocessingPlan:
    """Walk a traced model graph into a :class:`PreprocessingPlan`.

    ``bits`` is the arithmetic ring width of the activations (and so of
    every ring/matrix triple); it must match the serving service's
    ``ServiceTuning.ring_bits``.  ``fx`` prices the graph's Rescale
    layers as executable (exact) truncation demand; without it they
    surface as unplanned.
    """
    total = CorrelationDemand()
    per_layer = []
    for layer, in_shape, out_shape in graph.trace:
        demand = layer_demand(layer, in_shape, out_shape, bits, fx)
        per_layer.append((layer.name, demand))
        total.merge(demand)
    return PreprocessingPlan(graph.name, bits, total, per_layer, graph, fx)


#: The leader's stream positions, as the ``pipe/<plan>`` message
#: (:func:`repro.ot.channel.decode_msg`) ships them: pool name -> start.
START = {"start": {"positions": {str: int}}}


class PipelinedPrefill:
    """Streaming preprocessing: layer-by-layer production, the one
    driver of every preprocessing run.

    Made by :meth:`PreprocessingPlan.prefill_pipelined` on BOTH
    parties; :meth:`run` drives it on the calling thread.  It walks the
    plan's layers in order; for each layer it raises a produce target
    of ``start + cumulative count`` on every pool the plan reaches
    (:meth:`PreprocessingPlan.cumulative_production`, times the batch)
    -- the raw-COT pools first, so their stock covers every consumer
    draw and derived reservation through the layer before derived
    production reserves any -- waits for it to land, and marks the
    layer ready.  A caller running the online phase on another thread
    gates each layer's draws on :meth:`wait_layer`, so it starts after
    ONE layer's preprocessing instead of the whole plan's, and never
    stalls a pool afterwards.  The pipeline asks for production only
    by stream position, and starts no thread.

    Determinism: :meth:`run` is the one place a run's stream positions
    start.  The leader's are what its driver passes, by default its
    pools' ``reserved`` counts; they ship to the follower in-band over
    the pipeline's sub-channel (production streams are mirrored command
    by command, so leader stream positions are valid on both sides).
    Only the leader schedules; both wait on the same produced counts.
    :attr:`end` is where this run's positions end, ``start`` plus the
    batch-scaled plan totals.

    The pipeline assumes the planned workload is the only consumer
    while it runs: concurrent unplanned sessions may re-introduce
    stalls, never wrong results.
    """

    def __init__(
        self,
        plan: PreprocessingPlan,
        service,
        timeout: float,
        batch: int = 1,
        channel=None,
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
        # Demand counts are linear in element count, so a B-input
        # request through the same shapes is exactly B-times every
        # per-layer target.
        self._layers = [
            {kind: count * batch for kind, count in layer.items()}
            for layer in plan.cumulative_production()
        ]
        self.end = None
        self._ready = [threading.Event() for _ in range(self.n_layers)]
        self._t0 = None
        self._ready_elapsed = [None] * self.n_layers
        self._channel = (
            channel if channel is not None
            else service.mux.sub(f"pipe/{plan.model}")
        )

    def run(self, start: dict = None) -> None:
        """Produce every layer, in order, on the calling thread.  What
        fails is raised, and left in :attr:`error` for :meth:`wait_layer`
        callers on other threads.

        ``start`` (read on the leader only) is the stream position,
        pool name -> items, this run's draws begin at; by default the
        leader's ``reserved`` counts.  A pipeline overlapping a previous
        request's online tail passes where that request's positions
        end, so the tail's still-pending draws are not counted as its
        own.
        """
        self._t0 = time.monotonic()
        try:
            svc = self.service
            totals = self._layers[-1] if self._layers else {}
            if svc.party == 0:
                if start is None:
                    start = {kind: svc.pools[kind].reserved for kind in totals}
                self._channel.send_msg("start", positions=start)
            else:
                start = self._channel.recv_msg(START, timeout=self.timeout)["positions"]
                missing = sorted(totals.keys() - start.keys())
                if missing:
                    raise ProtocolError(f"start positions lack the plan's pools {missing}")
            self.end = {kind: start[kind] + count for kind, count in totals.items()}
            for i, layer in enumerate(self._layers):
                deadline = time.monotonic() + self.timeout
                raw, derived = {}, {}
                for kind, count in layer.items():
                    stage = raw if svc.pools[kind].recipe.direction else derived
                    stage[kind] = start[kind] + count
                with svc.tracer.span(
                    "prefill.layer", cat="prefill",
                    layer=i, op=self.plan.per_layer[i][0],
                ):
                    svc.produce_to(raw, deadline - time.monotonic())
                    svc.produce_to(derived, deadline - time.monotonic())
                    self._ready_elapsed[i] = time.monotonic() - self._t0
                    self._ready[i].set()
                if svc.tracer.enabled:
                    svc.tracer.instant(
                        "prefill.ready", cat="prefill",
                        layer=i, elapsed_s=self._ready_elapsed[i],
                    )
        except BaseException as exc:
            self.error = exc
            raise

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

    def ready_elapsed(self, i: int) -> float:
        """Seconds from :meth:`run`'s start until layer i was ready."""
        return self._ready_elapsed[i]
