"""The four workloads.

Each one is a small object the runner drives through the same steps:
``setup`` (timed, traced so PKC shows), ``measure`` for a number of
seconds (closed loop, every op checked), ``finish`` (the invariant
gates) and ``close``.  ``layer_metrics`` turns a traced segment's
ledger and counter deltas into the per-layer rows.

Correctness gates are not optional: every extend/LPN batch is
``verify_cot``-checked, every request is compared bit-for-bit with the
numpy fixed-point oracle, session draws must equal plan x requests,
planned pools must not stall, and teardown must find no leaked
reservation or parked segment.  Each gate counts one attempted op and,
when violated, one failed op.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.lpn import encode as lpn_encode
from repro.lpn.matrix import INDEX_BYTES
from repro.obs.trace import NULL_TRACER
from repro.ot.channel import LocalChannel
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot

import fixture
from registry import LPN, OTE, PRODUCE_OPS, SERVE, SINGLE

#: Ops (warm-up included) whose outputs feed the run's SHA-256 digest;
#: fixed, so the digest of two commits at one seed is comparable however
#: many ops the timed window fitted.
DIGEST_OPS = 4


#: Consecutive groups of completions a segment is cut into; the run's
#: rate is the median group's, so a burst of host interference that hits
#: fewer than half of them does not move it.
WINDOWS = 5


@dataclass
class Segment:
    """One measured stretch: per-op latencies, each op's completion time
    on the loop's clock (0 at the segment's start), the wall they span,
    and the counter deltas over it."""

    latencies: list
    ends: list
    wall_s: float
    counters: dict = field(default_factory=dict)
    records: list = field(default_factory=list)  # infer_*: one _Served per op

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def window_rates(self) -> list:
        """Ops per second of each of up to ``WINDOWS`` consecutive,
        equally sized groups of completions."""
        ends = sorted(self.ends)
        groups = min(WINDOWS, len(ends))
        rates, first, opened = [], 0, 0.0
        for g in range(1, groups + 1):
            last = g * len(ends) // groups
            rates.append((last - first) / (ends[last - 1] - opened))
            first, opened = last, ends[last - 1]
        return rates


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Workload:
    """Shared gate accounting, digest and measuring loop."""

    name = ""
    warmup_ops = 0
    #: Timed ops a segment holds at least, whatever ``--seconds`` says.
    min_ops = 4
    #: Usable COTs one op yields (the ``cot_ns`` denominator).
    cots_per_op = 0

    def __init__(self, seed: int, recorder=None):
        self.seed = seed
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._digest = hashlib.sha256()
        self._ops_done = 0
        self.first_op_s = 0.0

    # -- gates ---------------------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def feed_digest(self, *arrays) -> None:
        if self._ops_done < DIGEST_OPS:
            for arr in arrays:
                self._digest.update(np.ascontiguousarray(arr).tobytes())
        self._ops_done += 1

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    # -- steps ---------------------------------------------------------------
    def setup(self) -> float:
        raise NotImplementedError

    def op(self) -> float:
        """Run and check one op; returns its latency in seconds."""
        raise NotImplementedError

    def counters(self) -> dict:
        return {}

    def warmup(self) -> None:
        for i in range(self.warmup_ops):
            latency = self.op()
            if i == 0:
                self.first_op_s = latency

    def measure(self, seconds: float) -> Segment:
        """Serial closed loop on a clock that only runs inside ops, so the
        checks between ops are not billed to the program."""
        before = self.counters()
        latencies, ends, busy = [], [], 0.0
        while busy < seconds or len(latencies) < self.min_ops:
            latencies.append(self.op())
            busy += latencies[-1]
            ends.append(busy)
        return Segment(latencies, ends, busy, _delta(self.counters(), before))

    def set_tracing(self, on: bool) -> None:
        self.recorder.enabled = on

    def finish(self) -> None:
        """Run the end-of-run gates (default: none beyond per-op checks)."""

    def close(self) -> None:
        pass

    def setup_layer_metrics(self, ledger) -> dict:
        """Per-layer rows read off the traced setup phase."""
        out = {}
        for party, lane in enumerate(("snd", "rcv")):
            row = ledger.everywhere(party, "base_ot")
            out[f"base_ot.busy_s.{lane}"] = row.total_s
            out[f"base_ot.count.{lane}"] = row.size
            out[f"base_ot.us_per_ot.{lane}"] = row.total_s / row.size * 1e6 if row.size else 0.0
        return out

    def layer_metrics(self, ledger, segment: Segment) -> dict:
        raise NotImplementedError



def extend_rows(ledger, lane: str, roots: tuple, extends: int, suffix: str) -> dict:
    """The inside-one-extend rows of a lane, per extend.  Everything under
    an extend root is either the mpcot subtree, the LPN encode, or the
    root's own residual, so the three shares sum to one."""
    per = 1e3 / extends if extends else 0.0
    under = lambda name: ledger.under(lane, roots, name)  # noqa: E731
    total = sum(ledger.root(lane, root).total_s for root in roots)
    lpn = under("lpn.encode_blocks").self_s + under("lpn.encode_bits").self_s
    own = sum(ledger.row(lane, root, root).self_s for root in roots)
    ot = under("ot_from_cot")
    crhf = under("crhf.hash")
    out = {
        f"mpcot.self_ms.{suffix}": under("mpcot").self_s * per,
        f"spcot.self_ms.{suffix}": under("spcot").self_s * per,
        f"prg.expand_ms.{suffix}": under("prg.expand").self_s * per,
        f"ot_from_cot.self_ms.{suffix}": ot.self_s * per,
        f"ot_from_cot.calls.{suffix}": ot.calls / extends if extends else 0.0,
        f"crhf.hash_ms.{suffix}": crhf.self_s * per,
        f"crhf.blocks.{suffix}": crhf.size / extends if extends else 0.0,
        f"lpn.encode_ms.{suffix}": lpn * per,
    }
    if total > 0:
        out[f"ote.lpn_share.{suffix}"] = lpn / total
        out[f"ote.residual_frac.{suffix}"] = own / total
        out[f"ote.spcot_share.{suffix}"] = 1.0 - (lpn + own) / total
    return out


# -- ote_stream ---------------------------------------------------------------


class OteStream(Workload):
    name = OTE
    warmup_ops = 5
    min_ops = 8
    pair = None

    def setup(self) -> float:
        start = time.perf_counter()
        config = fixture.ferret_config()
        self.cots_per_op = config.net_output
        self.endpoints = (
            FerretSender(config, seed=self.seed),
            FerretReceiver(config, seed=self.seed + 1),
        )
        self.channels = fixture.channel_pair(LocalChannel, self.recorder, "channel")
        self.pair = fixture.PartyPair("ote")
        self._extend = [
            (lambda ep=ep, ch=ch: ep.extend(ch))
            for ep, ch in zip(self.endpoints, self.channels)
        ]
        if self.recorder is not None:
            for ep in self.endpoints:
                self.recorder.wrap_method(ep.prg, "expand", "prg.expand")
            self._extend = [self.recorder.wrap(fn, "ote.extend") for fn in self._extend]
        self.pair.run(
            *(lambda ep=ep, ch=ch: ep.setup(ch) for ep, ch in zip(self.endpoints, self.channels))
        )
        return time.perf_counter() - start

    def op(self) -> float:
        start = time.perf_counter()
        sent, received = self.pair.run(*self._extend)
        latency = time.perf_counter() - start
        self.check(verify_cot(sent, received), f"extend {self._ops_done}: COT relation broken")
        self.feed_digest(sent.z, received.x, received.y)
        return latency  # batches dropped here: retaining them inflates timings

    def counters(self) -> dict:
        out = {}
        for lane, ep, ch in zip(("snd", "rcv"), self.endpoints, self.channels):
            out[f"prg.calls.{lane}"] = ep.prg.total_calls
            out[f"wire.bytes.{lane}"] = ch.stats.bytes_sent
            out[f"wire.rounds.{lane}"] = ch.stats.rounds
            if self.recorder is not None:
                for key, value in ch.totals().items():
                    out[f"channel.{key}.{lane}"] = value
        return out

    def close(self) -> None:
        if self.pair is not None:
            self.pair.close()


    def layer_metrics(self, ledger, segment: Segment) -> dict:
        n, c = segment.ops, segment.counters
        out = {}
        for party, lane in enumerate(("snd", "rcv")):
            out.update(extend_rows(ledger, f"p{party}/ote-p{party}", ("ote.extend",), n, lane))
            out[f"prg.calls.{lane}"] = c[f"prg.calls.{lane}"] / n
            out[f"channel.recv_wait_ms.{lane}"] = c[f"channel.recv_wait_s.{lane}"] * 1e3 / n
            out[f"channel.send_ms.{lane}"] = c[f"channel.send_s.{lane}"] * 1e3 / n
            out[f"channel.msgs.{lane}"] = c[f"channel.msgs.{lane}"] / n
            out[f"channel.bytes.{lane}"] = c[f"channel.bytes.{lane}"] / n
        wire = c["wire.bytes.snd"] + c["wire.bytes.rcv"]
        out["wire_bytes_per_cot"] = wire / (n * self.cots_per_op)
        out["rounds_per_extend"] = c["wire.rounds.snd"] / n
        out["ote.extend_p50_ms"] = statistics.median(segment.latencies) * 1e3
        out["ote.extend_p95_ms"] = _pct(segment.latencies, 95) * 1e3
        out["ote.first_extend_s"] = self.first_op_s
        return out


# -- lpn_paper ----------------------------------------------------------------


class LpnPaper(Workload):
    name = LPN
    warmup_ops = 1
    min_ops = 4
    #: Matrix generation + dealing is short (~0.15 s): repeat it, report
    #: the median.
    setup_repeats = 15
    pair = None

    def setup(self) -> float:
        p = fixture.LPN_PAPER
        self.cots_per_op = p.usable_output
        self.pair = fixture.PartyPair("lpn")
        times, self.matrix_gen_s = [], []
        for _ in range(self.setup_repeats):
            start = time.perf_counter()
            self.matrix = fixture.lpn_matrix()
            self.matrix_gen_s.append(time.perf_counter() - start)
            self.inputs = fixture.deal_lpn(self.seed)
            times.append(time.perf_counter() - start)
        self._kernels = [self._sender_kernel, self._receiver_kernels]
        if self.recorder is not None:
            self._kernels = [self.recorder.wrap(fn, "lpn.round") for fn in self._kernels]
        return statistics.median(times)

    def _sender_kernel(self):
        i = self.inputs
        return lpn_encode.encode_blocks(self.matrix, i.r, i.w)

    def _receiver_kernels(self):
        i = self.inputs
        return (
            lpn_encode.encode_bits(self.matrix, i.e, i.u),
            lpn_encode.encode_blocks(self.matrix, i.s, i.v),
        )

    def op(self) -> float:
        # Both parties' kernels back to back, not concurrently: two
        # gathers at once would measure each other's memory traffic.
        k, i = fixture.LPN_PAPER.k, self.inputs
        start = time.perf_counter()
        z = self.pair.run_on(0, self._kernels[0])
        x, y = self.pair.run_on(1, self._kernels[1])
        latency = time.perf_counter() - start
        ok = verify_cot(CotSenderBatch(i.delta, z[k:]), CotReceiverBatch(x[k:], y[k:]))
        self.check(ok, f"LPN round {self._ops_done}: COT relation broken")
        self.feed_digest(z, x, y)
        # Bootstrap the next round from this one's head, as Ferret does,
        # so every round encodes fresh (still correlated) vectors.
        i.r, i.e, i.s = z[:k].copy(), x[:k].copy(), y[:k].copy()
        return latency

    def close(self) -> None:
        if self.pair is not None:
            self.pair.close()


    def layer_metrics(self, ledger, segment: Segment) -> dict:
        n = segment.ops
        out = {}
        for party, lane in enumerate(("snd", "rcv")):
            out.update(extend_rows(ledger, f"p{party}/lpn-p{party}", ("lpn.round",), n, lane))
        blocks_row = ledger.everywhere(0, "lpn.encode_blocks")
        blocks_row.add(ledger.everywhere(1, "lpn.encode_blocks"))
        bits_row = ledger.everywhere(1, "lpn.encode_bits")
        out["lpn.blocks_ns_per_row"] = blocks_row.self_s / blocks_row.size * 1e9
        out["lpn.bits_ns_per_row"] = bits_row.self_s / bits_row.size * 1e9
        # Computed, not measured, traffic: per output row d gathered
        # 16-byte blocks plus d int32 indices.
        per_row = self.matrix.d * (16 + INDEX_BYTES)
        out["lpn.gather_gbps"] = blocks_row.size * per_row / blocks_row.self_s / 1e9
        out["lpn.matrix_gen_s"] = statistics.median(self.matrix_gen_s)
        return out


# -- infer_single / infer_serve -----------------------------------------------


@dataclass
class _Served:
    client: int
    index: int
    x: np.ndarray
    out: tuple  # per-party output share
    latency_s: float
    done_s: float  # completion time on party 0, from the segment's start
    first_wait_s: float
    online_s: float


class Infer(Workload):
    """Closed-loop logical clients over the daemon pair.  One thread per
    client submits to both parties (leader first, so the follower's
    verdict is already in flight) and waits for both result shares."""

    clients = 1
    stack = None
    _torn_down = False

    def setup(self) -> float:
        start = time.perf_counter()
        self.stack = fixture.ServingStack(self.seed, self.clients, self.recorder)
        if self.recorder is not None:
            for party in (0, 1):
                for ep in self.stack.endpoints(party):
                    self.recorder.wrap_method(ep.prg, "expand", "prg.expand")
        self.stack.start()
        elapsed = time.perf_counter() - start
        self.cots_per_op = self.stack.plan.demand.total_cots(fixture.RING_BITS)
        self.served: list = []
        self._next_index = [0] * self.clients
        self._lock = threading.Lock()
        self._draws_at_start = self.stack.services[0].session_draw_counts()
        self._stalls_at_start = self._stalls()
        return elapsed

    def _stalls(self) -> int:
        stats = self.stack.services[0].pool_stats()
        return sum(stats[kind]["stalled_draws"] for kind in self.stack.plan.pool_targets())

    def _client(self, client: int, stop, records: list, began: float) -> None:
        d0, d1 = self.stack.daemons
        session = f"cli{client}"
        done = 0
        try:
            while not stop(done):
                index = self._next_index[client]
                self._next_index[client] += 1
                x, shares = fixture.request_input(self.seed, client, index)
                start = time.perf_counter()
                req0 = d0.submit(session, shares[0])
                req1 = d1.submit(session, shares[1])
                out0 = req0.result(fixture.TIMEOUT_S)[0]
                end = time.perf_counter()
                out1 = req1.result(fixture.TIMEOUT_S)[0]
                with self._lock:
                    records.append(
                        _Served(client, index, x, (out0, out1), end - start, end - began,
                                req0.first_wait_s, req0.online_s)
                    )
                done += 1
        except Exception as exc:  # noqa: BLE001 - a failed request is a failed op
            with self._lock:
                self.check(False, f"client {client} request {done}: {exc!r}")

    def _run_clients(self, stop) -> Segment:
        before = self.counters()
        records: list = []
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client, args=(c, stop, records, start), name=f"client-{c}"
            )
            for c in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        self.served += records
        return Segment(
            [r.latency_s for r in records], [r.done_s for r in records], wall,
            _delta(self.counters(), before), records,
        )

    def warmup(self) -> None:
        # The pools start with one extend of stock, so the first requests
        # are cheaper than steady state; run past them.
        self._run_clients(lambda done: done >= self.warmup_ops)

    def measure(self, seconds: float) -> Segment:
        deadline = time.perf_counter() + seconds
        return self._run_clients(
            lambda done: done >= self.min_ops and time.perf_counter() >= deadline
        )

    def set_tracing(self, on: bool) -> None:
        for svc, tracer in zip(self.stack.services, self.recorder.tracers):
            svc.set_tracer(tracer if on else NULL_TRACER)
        self.recorder.enabled = on

    def counters(self) -> dict:
        out = {}
        d0 = self.stack.daemons[0]
        out["daemon.admitted"] = d0.admitted
        out["daemon.rejected"] = d0.rejected
        for party, (svc, mux, link) in enumerate(
            zip(self.stack.services, self.stack.muxes, self.stack.links)
        ):
            out[f"extends.p{party}"] = svc.extends["fwd"] + svc.extends["rev"]
            out[f"prg.calls.p{party}"] = sum(
                ep.prg.total_calls for ep in self.stack.endpoints(party)
            )
            for tag, stats in mux.stats_by_tag().items():
                group = "prov" if tag.startswith("prov/") else "online"
                out[f"mux.{group}_bytes"] = out.get(f"mux.{group}_bytes", 0) + stats.bytes_sent
                out["mux.frames"] = out.get("mux.frames", 0) + stats.messages_sent
            if self.recorder is not None:
                for key, value in link.totals().items():
                    out[f"link.{key}.p{party}"] = value
        return out

    def finish(self) -> None:
        model = self.stack.model
        order = sorted(self.served, key=lambda r: (r.client, r.index))
        for r in order:
            got = (r.out[0] + r.out[1]) & fixture.RING_MASK
            self.check(
                np.array_equal(got, model.oracle(r.x)),
                f"client {r.client} request {r.index}: not bit-exact vs the oracle",
            )
            self.feed_digest(r.x, got)
        draws = _delta(self.stack.services[0].session_draw_counts(), self._draws_at_start)
        for kind, count in self.stack.plan.pool_targets().items():
            self.check(
                draws.get(kind, 0) == count * len(order),
                f"draws[{kind}] = {draws.get(kind, 0)}, plan x requests = {count * len(order)}",
            )
        stalls = self._stalls() - self._stalls_at_start
        self.check(stalls == 0, f"{stalls} stalled draws on planned pools")
        self._torn_down = True
        problems = self.stack.teardown()
        self.check(not problems, "; ".join(problems))

    def close(self) -> None:
        # finish() normally tore the stack down; this is the error path.
        if not self._torn_down and self.stack is not None:
            self._torn_down = True
            self.stack.teardown()


    def layer_metrics(self, ledger, segment: Segment) -> dict:
        n, c, records = segment.ops, segment.counters, segment.records
        per_req = 1e3 / n
        out = {}
        ext_roots = ("produce.EXT0", "produce.EXT1")
        for party, (lane, p) in enumerate((("snd", "p0"), ("rcv", "p1"))):
            worker = f"p{party}/corr-service-p{party}"
            online = f"p{party}/daemon-p{party}-_online_loop"
            extends = c[f"extends.p{party}"]
            out.update(extend_rows(ledger, worker, ext_roots, extends, lane))
            out[f"prg.calls.{lane}"] = c[f"prg.calls.p{party}"] / extends if extends else 0.0
            busy = 0.0
            for op in PRODUCE_OPS:
                top = ledger.root(worker, f"produce.{op}")
                busy += top.total_s
                out[f"produce.{op}.ms_per_req.{p}"] = top.total_s * per_req
                if party == 0:
                    out[f"produce.{op}.cmds_per_req"] = len(top.durations) / n
            out[f"worker.idle_frac.{p}"] = max(0.0, 1.0 - busy / segment.wall_s)
            out[f"pool.wait_ms_per_req.{p}"] = ledger.everywhere(party, "pool.wait").total_s * per_req
            # Only the online loop's waits: the schedule loop's wait_all
            # sees the same production time and is not on the critical path.
            out[f"plan.wait_layer_ms_per_req.{p}"] = (
                ledger.row(online, "request.online", "online.wait").total_s * per_req
            )
            for op in ("linear_rescale", "linear", "relu"):
                row = ledger.row(online, "request.online", f"online.{op}")
                out[f"online.{op}_ms.{p}"] = row.total_s * per_req
            out[f"link.send_ms_per_req.{p}"] = c[f"link.send_s.p{party}"] * per_req
            out[f"link.recv_wait_ms_per_req.{p}"] = c[f"link.recv_wait_s.p{party}"] * per_req
        durations = [
            d for root in ext_roots
            for d in ledger.root("p0/corr-service-p0", root).durations
        ]
        out["ote.extend_p50_ms"] = _pct(durations, 50) * 1e3
        out["ote.extend_p95_ms"] = _pct(durations, 95) * 1e3
        out["pool.stalled_draws"] = self._stalls() - self._stalls_at_start
        out["ferret.extends_per_req"] = c["extends.p0"] / n
        produced = c["extends.p0"] * fixture.ferret_config().net_output
        out["ferret.cot_yield"] = n * self.cots_per_op / produced if produced else 0.0
        out["ttfl_p50_s"] = statistics.median(r.first_wait_s for r in records)
        out["online.total_ms_p50"] = statistics.median(r.online_s for r in records) * 1e3
        out["daemon.queue_ms_p50"] = statistics.median(
            max(0.0, r.latency_s - r.first_wait_s - r.online_s) for r in records
        ) * 1e3
        out["daemon.admitted"] = c["daemon.admitted"]
        out["daemon.rejected"] = c["daemon.rejected"]
        out["request_p75_s"] = _pct(segment.latencies, 75)
        out["request.samples"] = n
        out["mux.prov_bytes_per_req"] = c["mux.prov_bytes"] / n
        out["online_bytes_per_req"] = c["mux.online_bytes"] / n
        out["mux.frames_per_req"] = c["mux.frames"] / n
        # The critical path is party 0's online loop: whatever of the
        # summed request latency no named span under request.online
        # explains (admission, queueing, the loop's own bookkeeping).
        lane = "p0/daemon-p0-_online_loop"
        named = sum(
            row.self_s for (ln, root, name), row in ledger.rows.items()
            if ln == lane and root == "request.online" and name != root
        )
        out["infer.residual_frac"] = max(0.0, 1.0 - named / sum(segment.latencies))
        return out


class InferSingle(Infer):
    name = SINGLE
    clients = 1
    warmup_ops = 3
    min_ops = 4


class InferServe(Infer):
    name = SERVE
    clients = 2
    warmup_ops = 2  # per client
    min_ops = 4


REGISTRY = {cls.name: cls for cls in (OteStream, LpnPaper, InferSingle, InferServe)}
