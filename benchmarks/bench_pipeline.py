"""Pipelined vs. all-at-once preprocessing: time-to-first-layer-online.

All-at-once prefill makes first-token latency pay the WHOLE
preprocessing bill before the first online opening: every layer's
matrix triples, comparison COTs, bit triples and B2A material must be
pooled up front.  The pipelined planner
(:meth:`repro.ppml.plan.PreprocessingPlan.prefill_pipelined`) instead
schedules production layer by layer and lets layer i's online rounds
run while layer i+1's correlations are produced underneath -- the
software analogue of Ironman's Fig. 8 schedule overlap.  This
benchmark runs the same quantized 3-block MLP (matmul+rescale -> ReLU,
twice, then a final matmul) both ways on fresh service pairs and
measures:

* **time-to-first-layer-online** -- wall time from preprocessing start
  until the first layer's online phase may begin (the full prefill for
  all-at-once; layer 0's production for pipelined);
* **end-to-end latency** -- preprocessing start to online result;
* plan exactness (draws == plan) and pipelined stall-freedom.

Headline: pipelined time-to-first-layer-online must be at least 2x
better, end-to-end no worse.  Results go to ``BENCH_pipeline.json`` at
the repo root.

Run under pytest:   pytest benchmarks/bench_pipeline.py --benchmark-only -s
Run standalone:     PYTHONPATH=src python benchmarks/bench_pipeline.py
Smoke (CI):         PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
from bench_io import add_bench_args, write_payload, write_trace

from repro.ferret.config import FerretConfig
from repro.lpn.params import LpnParams
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import LocalChannel, run_concurrently
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning, compile_ops, run_online

PARAMS = LpnParams("bench-pipe", 1 << 14, 512, 512, 32, 0.0)
RING_BITS = 16
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
#: The benchmarked MLP: (M x K) @ (K x H1) -> trunc -> ReLU
#:                        @ (H1 x H2) -> trunc -> ReLU -> @ (H2 x OUT).
SHAPE = (8, 32, 32, 48, 16)
#: Big enough that derived production (not the first extend) dominates
#: the smoke prefill, so the regression gate's healthy ttfo_speedup
#: separates cleanly from the ~1.0x a dead (non-overlapping) pipeline
#: produces.
SMOKE_SHAPE = (4, 16, 16, 24, 8)
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
MASK = ring_mask_u64(RING_BITS)


def build_model(shape) -> Graph:
    m, k, h1, h2, out = shape
    g = Graph("PipeMLP", (m, k))
    g.add(Linear(h1))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(h2))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(out))
    return g


def start_services():
    # Zero steady-state triple watermarks: production is driven purely
    # by the plan (prefill watermarks / pipelined produce targets), so
    # no background refill competes with the planned consumer draws for
    # raw COT stock and the zero-stall assertion is deterministic.
    tuning = ServiceTuning(
        ring_bits=RING_BITS,
        triple_low=0, triple_high=0, triple_chunk=1024,
        rtri_chunk=256,
        enable_rots=False,
        take_timeout_s=600.0,
    )
    cfg = FerretConfig(params=PARAMS, arity=4, prg_kind="chacha8")
    base0, base1 = LocalChannel.pair(timeout=600.0)
    mux0 = MuxChannel(base0, timeout=600.0)
    mux1 = MuxChannel(base1, timeout=600.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=0xF1F).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=0xF1F).start()
    svc0.wait_ready(600.0)
    svc1.wait_ready(600.0)
    return svc0, svc1, mux0, mux1


def make_shares(shape, rng):
    m, k, h1, h2, out = shape
    x = rng.integers(-8, 8, (m, k))
    w1 = rng.integers(-3, 3, (k, h1))
    w2 = rng.integers(-3, 3, (h1, h2))
    w3 = rng.integers(-3, 3, (h2, out))
    shares = {
        key: share_arith_nd(from_signed(mat, RING_BITS), rng, bits=RING_BITS)
        for key, mat in (("x", x), ("w1", w1), ("w2", w2), ("w3", w3))
    }
    h = np.maximum((x @ w1) >> FX.frac_bits, 0)
    h = np.maximum((h @ w2) >> FX.frac_bits, 0)
    expect = ((h @ w3).astype(np.int64) & int(MASK)).astype(np.uint64)
    return shares, expect


def online_fn(svc, party, plan, shares, pipe=None):
    """One party's online phase; gated on the pipeline when given one."""
    weights = [shares[key][party] for key in ("w1", "w2", "w3")]
    return lambda: run_online(
        plan, svc.session("pipe-mlp"), weights, [shares["x"][party]],
        np.random.default_rng(90 + party),
        pipe.wait_layer if pipe is not None else None,
    )[0]


def first_gate(plan) -> int:
    """Plan-layer index the first online op waits for (linear + rescale)."""
    return compile_ops(plan.graph)[0][1]


def run_scenario(shape, pipelined: bool, tracers=None) -> dict:
    """One fresh service pair; returns TTFO / end-to-end timings."""
    svc0, svc1, mux0, mux1 = start_services()
    if tracers is not None:
        svc0.set_tracer(tracers[0])
        svc1.set_tracer(tracers[1])
    plan = plan_graph(build_model(shape), bits=RING_BITS, fx=FX)
    shares, expect = make_shares(shape, np.random.default_rng(0xBA))
    draws_before = svc0.session_draw_counts()
    stall_before = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}

    t0 = time.perf_counter()
    if pipelined:
        pipe0 = plan.prefill_pipelined(svc0, timeout=600.0)
        pipe1 = plan.prefill_pipelined(svc1, timeout=600.0)
        z0, z1 = run_concurrently(
            online_fn(svc0, 0, plan, shares, pipe0),
            online_fn(svc1, 1, plan, shares, pipe1),
            timeout=600.0,
        )
        e2e_s = time.perf_counter() - t0
        pipe0.finish(), pipe1.finish()
        ttfo_s = pipe0.ready_elapsed(first_gate(plan))
        preprocessing_s = pipe0.ready_elapsed(plan_layers(plan) - 1)
    else:
        run_concurrently(
            lambda: plan.prefill(svc0, timeout=600.0, one_shot=True),
            lambda: plan.prefill(svc1, timeout=600.0, one_shot=True),
            timeout=600.0,
        )
        ttfo_s = preprocessing_s = time.perf_counter() - t0
        z0, z1 = run_concurrently(
            online_fn(svc0, 0, plan, shares),
            online_fn(svc1, 1, plan, shares),
            timeout=600.0,
        )
        e2e_s = time.perf_counter() - t0
    assert np.array_equal((z0 + z1) & MASK, expect), "online inference wrong"

    # Plan exactness holds in both modes; the pipelined online phase
    # additionally never stalled a planned pool (zero production waits
    # after the first layer's gate).
    for kind, count in plan.pool_targets().items():
        drawn = svc0.session_draw_counts().get(kind, 0) - draws_before.get(kind, 0)
        assert drawn == count, f"plan mismatch for {kind}: drew {drawn}, planned {count}"
    stall_after = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}
    stalls = sum(
        stall_after[kind] - stall_before.get(kind, 0)
        for kind in plan.pool_targets()
    )
    assert stalls == 0, f"{stalls} planned-pool stalls"

    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()
    return {
        "mode": "pipelined" if pipelined else "all_at_once",
        "ttfo_s": ttfo_s,
        "preprocessing_s": preprocessing_s,
        "online_overlap_s": e2e_s - ttfo_s,
        "e2e_s": e2e_s,
        "planned_cots": plan.demand.total_cots(RING_BITS),
        "planned_stalls": stalls,
        "extends": dict(svc0.extends),
    }


def plan_layers(plan) -> int:
    return len(plan.per_layer)


def run_all(shape, tracers=None) -> list:
    # Tracers (when recording a timeline) attach to the pipelined scenario
    # only -- that is the run whose prefill/online overlap the trace shows.
    return [
        run_scenario(shape, pipelined=False),
        run_scenario(shape, pipelined=True, tracers=tracers),
    ]


def report(rows, shape) -> None:
    from repro.utils.tables import print_table

    m, k, h1, h2, out = shape
    print()
    print_table(
        ["mode", "first layer online (s)", "e2e (s)", "planned COTs", "extends"],
        [
            [
                r["mode"],
                f"{r['ttfo_s']:.2f}",
                f"{r['e2e_s']:.2f}",
                f"{r['planned_cots']:,}",
                f"fwd={r['extends']['fwd']} rev={r['extends']['rev']}",
            ]
            for r in rows
        ],
        title=(
            f"Pipelined preprocessing, MLP ({m},{k})->({h1})->({h2})->({out}), "
            f"n={PARAMS.n}"
        ),
    )
    allat, pipe = rows
    print(
        f"\ntime-to-first-layer-online {allat['ttfo_s']:.2f}s all-at-once -> "
        f"{pipe['ttfo_s']:.2f}s pipelined "
        f"({allat['ttfo_s'] / pipe['ttfo_s']:.1f}x better), "
        f"e2e {allat['e2e_s']:.2f}s -> {pipe['e2e_s']:.2f}s"
    )


def check(rows) -> None:
    """Acceptance: TTFO at least 2x better, end-to-end no worse."""
    allat, pipe = rows
    assert allat["ttfo_s"] >= 2.0 * pipe["ttfo_s"], (
        f"pipelined TTFO ({pipe['ttfo_s']:.2f}s) not 2x better than "
        f"all-at-once ({allat['ttfo_s']:.2f}s)"
    )
    assert pipe["e2e_s"] <= 1.10 * allat["e2e_s"], (
        f"pipelined e2e ({pipe['e2e_s']:.2f}s) worse than all-at-once "
        f"({allat['e2e_s']:.2f}s)"
    )


def payload(rows, shape) -> dict:
    allat, pipe = rows
    return {
        "bench": "pipeline",
        "config": {
            "n": PARAMS.n,
            "k": PARAMS.k,
            "t": PARAMS.t,
            "ring_bits": RING_BITS,
            "frac_bits": FX.frac_bits,
            "mlp_shape": list(shape),
            "machine": platform.machine(),
        },
        "scenarios": rows,
        "ttfo_speedup": allat["ttfo_s"] / pipe["ttfo_s"],
        "e2e_ratio_pipelined_vs_all_at_once": pipe["e2e_s"] / allat["e2e_s"],
    }


def write_json(rows, shape, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload(rows, shape), indent=2) + "\n")
    print(f"wrote {path}")


def test_bench_pipeline(benchmark, once):
    rows = once(benchmark, lambda: run_all(SHAPE))
    report(rows, SHAPE)
    check(rows)
    write_json(rows, SHAPE)
    benchmark.extra_info["ttfo_speedup"] = rows[0]["ttfo_s"] / rows[1]["ttfo_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_args(
        parser,
        smoke_help="tiny MLP that skips the perf assertion and does not "
        "touch the committed JSON",
        trace=True,
    )
    args = parser.parse_args(argv)
    shape = SMOKE_SHAPE if args.smoke else SHAPE
    tracers = None
    if args.trace_out is not None:
        from repro.obs import Tracer

        tracers = [Tracer(party=0), Tracer(party=1)]
    rows = run_all(shape, tracers=tracers)
    report(rows, shape)
    if args.trace_out is not None:
        write_trace(args.trace_out, tracers)
    if args.json_out is not None:
        write_payload(args.json_out, payload(rows, shape))
    if args.smoke:
        print("smoke OK")
        return 0
    check(rows)
    write_json(rows, shape)
    return 0


if __name__ == "__main__":
    sys.exit(main())
