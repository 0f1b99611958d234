"""The ledger's registry: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repo root is the contract the driver reads;
this module is the same list as Python data so the runner, the
comparer and the schema test share one source.  ``test_ledger_schema``
asserts the two never drift.

Every per-layer metric carries ``moves``: the (end-to-end metric,
workload) pairs it is expected to move, written down before measuring
(choosing-metrics, section 3).  An empty workload list is not allowed;
harness rows name the metric they qualify.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures; equals ``run_seconds`` in BENCHMARK.json.
#: The driver's 4 + 22 x 3 runs must fit 3420 s and real PKC setup is
#: ~18 s (ote_stream) / ~36 s (infer_single) of every run; see README.md,
#: "Time budget".
RUN_SECONDS = 15

OTE, LPN, SINGLE, SERVE = "ote_stream", "lpn_paper", "infer_single", "infer_serve"
INFER = (SINGLE, SERVE)
PROTOCOL = (OTE, SINGLE, SERVE)

#: name -> why the workload exists (one line, copied into BENCHMARK.json).
#: These are the workloads the driver runs and bounds.
WORKLOADS = {
    OTE: "raw OT-extension stream at n=19086: SPCOT-bound (per-level OTs, "
    "ChaCha GGM, CRHF), LPN cache-resident, runtime/mpc layers idle",
    LPN: "Table 4 2^20 LPN encode (n=1221516, k=168000, d=10): the "
    "memory-bound gather regime; SPCOT, PKC and channel do nothing",
    SINGLE: "one closed-loop client on the daemon pair: a request's critical "
    "path with no cross-request overlap (derived production + online ops)",
}

#: Runnable with ``run.py --workload`` and part of ``run.py``'s full pass,
#: but not in BENCHMARK.json: a fourth workload with ~40 s of PKC setup per
#: run leaves the other three 6 s runs, too short to hold a bound.
LOCAL_WORKLOADS = {
    SERVE: "two closed-loop clients, zero think time: admission, "
    "cross-request pipelining and contended pools/GIL on the same layers",
}
ALL_WORKLOADS = {**WORKLOADS, **LOCAL_WORKLOADS}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


#: Reported by every workload from the untraced pass.  An "op" is one
#: extend pair (ote_stream), one LPN round (lpn_paper) or one request
#: (infer_*); see README.md for why the ISSUE's per-workload metrics
#: became per-layer rows and why the timing bounds are 0.25.
END_TO_END = (
    # Construct endpoints/services until both parties are ready; the
    # median of fifteen matrix-gen + dealing rounds on lpn_paper.
    EndToEnd("setup_s", "s", "lower", 0.25),
    # 1e9 / (throughput_rps x usable COTs per op): net_output per extend,
    # n-k per LPN round, the plan's total_cots per request.
    EndToEnd("cot_ns", "ns/COT", "lower", 0.25),
    # Median op latency; on infer_* submit -> result on party 0.
    EndToEnd("request_p50_s", "s", "lower", 0.25),
    # Completed, checked ops per second: the median over five consecutive
    # windows of the run (workloads.WINDOWS).
    EndToEnd("throughput_rps", "req/s", "higher", 0.25),
    # ru_maxrss of the run's process.
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: ((end-to-end metric, (workloads...)), ...) this row should move.
    moves: tuple


def _lanes(stem, unit, better, layer, moves, lanes=("snd", "rcv")):
    return [PerLayer(f"{stem}.{lane}", unit, better, layer, moves) for lane in lanes]


PRODUCE_OPS = ("EXT0", "EXT1", "TRI", "RTRI", "MTRI", "TPRC")
_SETUP = (("setup_s", PROTOCOL),)
_OTE_COT = (("cot_ns", (OTE,)),)
_REQ = (("request_p50_s", INFER), ("throughput_rps", INFER))
_REQ_SINGLE = (("request_p50_s", (SINGLE,)),)


def _per_layer() -> tuple:
    rows = []
    # ot.base_ot -- PKC Init; ~100% of setup_s wherever Ferret is set up.
    rows += _lanes("base_ot.busy_s", "s", "lower", "ot.base_ot", _SETUP)
    rows += _lanes("base_ot.us_per_ot", "us", "lower", "ot.base_ot", _SETUP)
    rows += _lanes("base_ot.count", "count", "lower", "ot.base_ot", _SETUP)
    # Inside one extend (self time, children excluded, per extend).
    rows += _lanes("mpcot.self_ms", "ms", "lower", "spcot.mpcot", _OTE_COT)
    rows += _lanes("spcot.self_ms", "ms", "lower", "spcot.protocol", _OTE_COT)
    rows += _lanes("prg.expand_ms", "ms", "lower", "crypto.prg", _OTE_COT)
    rows += _lanes("prg.calls", "count", "lower", "crypto.prg", _OTE_COT)
    rows += _lanes("ot_from_cot.self_ms", "ms", "lower", "ot.ot_from_cot", _OTE_COT)
    rows += _lanes("ot_from_cot.calls", "count", "lower", "ot.ot_from_cot", _OTE_COT)
    rows += _lanes("crhf.hash_ms", "ms", "lower", "crypto.crhf", _OTE_COT)
    rows += _lanes("crhf.blocks", "count", "lower", "crypto.crhf", _OTE_COT)
    lpn_moves = (("cot_ns", (LPN, OTE)),)
    rows += _lanes("lpn.encode_ms", "ms", "lower", "lpn.encode", lpn_moves)
    rows += [
        PerLayer("lpn.blocks_ns_per_row", "ns", "lower", "lpn.encode", lpn_moves),
        PerLayer("lpn.bits_ns_per_row", "ns", "lower", "lpn.encode", lpn_moves),
        PerLayer("lpn.gather_gbps", "GB/s", "higher", "lpn.encode", lpn_moves),
        PerLayer(
            "lpn.matrix_gen_s", "s", "lower", "lpn.matrix", (("setup_s", (LPN,)),)
        ),
    ]
    # ot.channel -- the LocalChannel pair of ote_stream, per extend.
    wire = (("cot_ns", (OTE,)),)
    rows += _lanes("channel.recv_wait_ms", "ms", "lower", "ot.channel", wire)
    rows += _lanes("channel.send_ms", "ms", "lower", "ot.channel", wire)
    rows += _lanes("channel.msgs", "count", "lower", "ot.channel", wire)
    rows += _lanes("channel.bytes", "B", "lower", "ot.channel", wire)
    rows += [
        PerLayer("wire_bytes_per_cot", "B/COT", "lower", "ot.channel", wire),
        PerLayer("rounds_per_extend", "count", "lower", "ot.channel", wire),
    ]
    # ferret.protocol -- one extend as a whole.
    ext = (("cot_ns", (OTE,)), ("request_p50_s", (OTE,)))
    rows += [
        PerLayer("ote.extend_p50_ms", "ms", "lower", "ferret.protocol", ext),
        PerLayer("ote.extend_p95_ms", "ms", "lower", "ferret.protocol", ext),
        PerLayer("ote.first_extend_s", "s", "lower", "ferret.protocol", ext),
    ]
    rows += _lanes("ote.spcot_share", "ratio", "lower", "ferret.protocol", ext)
    rows += _lanes("ote.lpn_share", "ratio", "lower", "ferret.protocol", ext)
    rows += _lanes("ote.residual_frac", "ratio", "lower", "ferret.protocol", ext)
    # runtime.service -- worker busy time by production opcode.
    parties = ("p0", "p1")
    for op in PRODUCE_OPS:
        rows += _lanes(
            f"produce.{op}.ms_per_req", "ms", "lower", "runtime.service", _REQ, parties
        )
        rows.append(
            PerLayer(f"produce.{op}.cmds_per_req", "count", "lower", "runtime.service", _REQ)
        )
    rows += _lanes("worker.idle_frac", "ratio", "higher", "runtime.service", _REQ, parties)
    # runtime.pool
    rows += _lanes("pool.wait_ms_per_req", "ms", "lower", "runtime.pool", _REQ, parties)
    rows += [
        PerLayer("pool.stalled_draws", "count", "lower", "runtime.pool", _REQ),
        PerLayer("ferret.extends_per_req", "count", "lower", "runtime.pool", _REQ),
        PerLayer("ferret.cot_yield", "ratio", "higher", "runtime.pool", _REQ),
    ]
    # ppml.plan -- online loop blocked on a layer's correlations.
    rows += _lanes(
        "plan.wait_layer_ms_per_req", "ms", "lower", "ppml.plan", _REQ, parties
    )
    rows.append(PerLayer("ttfl_p50_s", "s", "lower", "ppml.plan", _REQ))
    # mpc.matmul / mpc.relu / mpc.truncation -- online ops, per request.
    rows += _lanes("online.linear_rescale_ms", "ms", "lower", "mpc.matmul", _REQ_SINGLE, parties)
    rows += _lanes("online.linear_ms", "ms", "lower", "mpc.matmul", _REQ_SINGLE, parties)
    rows += _lanes("online.relu_ms", "ms", "lower", "mpc.relu", _REQ_SINGLE, parties)
    rows.append(PerLayer("online.total_ms_p50", "ms", "lower", "mpc", _REQ_SINGLE))
    # runtime.daemon
    serve = (("request_p50_s", (SERVE,)), ("throughput_rps", (SERVE,)))
    rows += [
        PerLayer("daemon.queue_ms_p50", "ms", "lower", "runtime.daemon", serve),
        PerLayer("daemon.admitted", "count", "higher", "runtime.daemon", serve),
        PerLayer("daemon.rejected", "count", "lower", "runtime.daemon", serve),
        PerLayer("request_p75_s", "s", "lower", "runtime.daemon", serve),
        PerLayer("request.samples", "count", "higher", "runtime.daemon", _REQ),
    ]
    # runtime.mux / socket link
    rows += [
        PerLayer("mux.prov_bytes_per_req", "B", "lower", "runtime.mux", _REQ),
        PerLayer("online_bytes_per_req", "B", "lower", "runtime.mux", _REQ),
        PerLayer("mux.frames_per_req", "count", "lower", "runtime.mux", _REQ),
    ]
    rows += _lanes("link.send_ms_per_req", "ms", "lower", "ot.channel", _REQ, parties)
    rows += _lanes("link.recv_wait_ms_per_req", "ms", "lower", "ot.channel", _REQ, parties)
    # harness -- qualifies every end-to-end number of the run it is in.
    every = tuple((m.name, tuple(ALL_WORKLOADS)) for m in END_TO_END)
    rows += [
        PerLayer("infer.residual_frac", "ratio", "lower", "harness", _REQ_SINGLE),
        PerLayer("trace.overhead_frac", "ratio", "lower", "harness", every),
        PerLayer("failed_frac", "ratio", "lower", "harness", every),
        PerLayer("host.nproc", "count", "higher", "harness", every),
        PerLayer("host.xor_gbps", "GB/s", "higher", "harness", every),
        PerLayer("host.load1", "ratio", "lower", "harness", every),
        PerLayer("host.numba", "count", "higher", "harness", every),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The document BENCHMARK.json must equal (key order included)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
