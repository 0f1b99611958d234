"""Warm vs. cold pools: what the preprocessing phase buys online.

Ironman's Section 5.2 deployment story is that correlations for PPML
are *preprocessing*: the accelerator mass-produces them ahead of time
and the online phase merely consumes them.  This benchmark measures
that split end to end on the runtime:

* a small MLP (two secure MatMuls + a ReLU) is planned by
  :func:`repro.ppml.plan.plan_graph` into exact correlation demand;
* **cold**: the online inference starts immediately after service
  setup -- every matrix triple, comparison COT and bit triple is
  produced on demand, stalling the critical path;
* **warm**: the plan prefills the pools first (the preprocessing
  phase, timed separately), then the identical online phase runs
  against warm pools.

Headline: warm-pool online latency must land materially below cold
start.  Results go to ``BENCH_preprocessing.json`` at the repo root.

Run under pytest:   pytest benchmarks/bench_preprocessing.py --benchmark-only -s
Run standalone:     PYTHONPATH=src python benchmarks/bench_preprocessing.py
Smoke (CI):         PYTHONPATH=src python benchmarks/bench_preprocessing.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
from bench_io import add_bench_args, write_payload

from repro.ferret.config import FerretConfig
from repro.lpn.params import LpnParams
from repro.mpc.sharing import share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.ot.channel import LocalChannel, run_concurrently
from repro.ppml.layers import Activation, Graph, Linear
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning, run_online
from repro.utils.tables import print_table

PARAMS = LpnParams("bench-pre", 1 << 14, 512, 512, 32, 0.0)
RING_BITS = 16
#: The benchmarked MLP: (M x K) @ (K x H) -> ReLU -> (M x H) @ (H x OUT).
SHAPE = (16, 64, 32, 8)
SMOKE_SHAPE = (4, 16, 8, 4)
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_preprocessing.json"
MASK = ring_mask_u64(RING_BITS)


def build_model(shape) -> Graph:
    m, k, h, out = shape
    g = Graph("BenchMLP", (m, k))
    g.add(Linear(h))
    g.add(Activation("relu"))
    g.add(Linear(out))
    return g


def make_config() -> FerretConfig:
    return FerretConfig(params=PARAMS, arity=4, prg_kind="chacha8")


def start_services():
    tuning = ServiceTuning(
        ring_bits=RING_BITS,
        triple_low=256, triple_high=2048, triple_chunk=1024,
        take_timeout_s=600.0,
    )
    base0, base1 = LocalChannel.pair(timeout=600.0)
    mux0 = MuxChannel(base0, timeout=600.0)
    mux1 = MuxChannel(base1, timeout=600.0)
    svc0 = CorrelationService(0, mux0, make_config(), tuning, seed=0xBEEF).start()
    svc1 = CorrelationService(1, mux1, make_config(), tuning, seed=0xBEEF).start()
    svc0.wait_ready(600.0)
    svc1.wait_ready(600.0)
    return svc0, svc1, mux0, mux1


def online_inference(svc, party, plan, shares, name):
    weights = [shares["w1"][party], shares["w2"][party]]
    return lambda: run_online(
        plan, svc.session(name), weights, [shares["x"][party]],
        np.random.default_rng(7 + party),
    )[0]


def make_shares(shape, rng):
    m, k, h, out = shape
    x = rng.integers(0, 4, (m, k)).astype(np.uint64)
    w1 = rng.integers(0, 3, (k, h)).astype(np.uint64)
    w2 = rng.integers(0, 3, (h, out)).astype(np.uint64)
    shares = {
        key: share_arith_nd(mat, rng, bits=RING_BITS)
        for key, mat in (("x", x), ("w1", w1), ("w2", w2))
    }
    expect = (
        np.maximum(0, (x @ w1).astype(np.int64)).astype(np.uint64) @ w2
    ) & MASK
    return shares, expect


def run_scenario(shape, warm: bool) -> dict:
    """One fresh service pair; returns preprocessing/online timings."""
    svc0, svc1, mux0, mux1 = start_services()
    model = build_model(shape)
    plan = plan_graph(model, bits=RING_BITS)
    shares, expect = make_shares(shape, np.random.default_rng(0xA5))

    preprocessing_s = 0.0
    if warm:
        t0 = time.perf_counter()
        run_concurrently(
            lambda: plan.prefill(svc0, timeout=600.0),
            lambda: plan.prefill(svc1, timeout=600.0),
            timeout=600.0,
        )
        preprocessing_s = time.perf_counter() - t0
    draws_before = svc0.session_draw_counts()

    t1 = time.perf_counter()
    z0, z1 = run_concurrently(
        online_inference(svc0, 0, plan, shares, "bench-mlp"),
        online_inference(svc1, 1, plan, shares, "bench-mlp"),
        timeout=600.0,
    )
    online_s = time.perf_counter() - t1
    assert np.array_equal((z0 + z1) & MASK, expect), "online inference wrong"

    # The planner's demand must match the online draws exactly.
    for kind, count in plan.pool_targets().items():
        drawn = svc0.session_draw_counts().get(kind, 0) - draws_before.get(kind, 0)
        assert drawn == count, f"plan mismatch for {kind}: drew {drawn}, planned {count}"

    stats = svc0.pool_stats()
    stall_s = sum(s["stall_time_s"] for s in stats.values())
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()
    return {
        "mode": "warm" if warm else "cold",
        "preprocessing_s": preprocessing_s,
        "online_s": online_s,
        "stall_s": stall_s,
        "planned_cots": plan.demand.total_cots(RING_BITS),
        "matrix_triples": sum(
            n for kind, n in plan.pool_targets().items() if kind.startswith("mtri/")
        ),
        "bit_triples": plan.pool_targets().get("tri", 0),
        "extends": dict(svc0.extends),
    }


def run_all(shape) -> list:
    return [run_scenario(shape, warm=False), run_scenario(shape, warm=True)]


def report(rows, shape) -> None:
    m, k, h, out = shape
    print()
    print_table(
        ["mode", "preprocessing (s)", "online (s)", "planned COTs", "extends"],
        [
            [
                r["mode"],
                f"{r['preprocessing_s']:.2f}",
                f"{r['online_s']:.2f}",
                f"{r['planned_cots']:,}",
                f"fwd={r['extends']['fwd']} rev={r['extends']['rev']}",
            ]
            for r in rows
        ],
        title=f"Preprocessing split, MLP ({m},{k})->({h})->({out}), n={PARAMS.n}",
    )
    cold, warm = rows[0]["online_s"], rows[1]["online_s"]
    print(
        f"\nonline latency {cold:.2f}s cold -> {warm:.2f}s warm "
        f"({cold / warm:.1f}x faster with prefilled pools)"
    )


def check(rows) -> None:
    """Acceptance: warm-pool online latency materially below cold start."""
    cold, warm = rows[0]["online_s"], rows[1]["online_s"]
    assert warm < 0.7 * cold, f"warm online ({warm:.2f}s) not materially below cold ({cold:.2f}s)"


def payload(rows, shape) -> dict:
    return {
        "bench": "preprocessing",
        "config": {
            "n": PARAMS.n,
            "k": PARAMS.k,
            "t": PARAMS.t,
            "ring_bits": RING_BITS,
            "mlp_shape": list(shape),
            "machine": platform.machine(),
        },
        "scenarios": rows,
        "online_speedup_warm_vs_cold": rows[0]["online_s"] / rows[1]["online_s"],
    }


def write_json(rows, path: Path = JSON_PATH, shape=SHAPE) -> None:
    path.write_text(json.dumps(payload(rows, shape), indent=2) + "\n")
    print(f"wrote {path}")


def test_bench_preprocessing(benchmark, once):
    rows = once(benchmark, lambda: run_all(SHAPE))
    report(rows, SHAPE)
    check(rows)
    write_json(rows)
    benchmark.extra_info["online_speedup"] = rows[0]["online_s"] / rows[1]["online_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_args(
        parser,
        smoke_help="tiny MLP that skips the perf assertion and does not "
        "touch the committed JSON",
    )
    args = parser.parse_args(argv)
    shape = SMOKE_SHAPE if args.smoke else SHAPE
    rows = run_all(shape)
    report(rows, shape)
    if args.json_out is not None:
        write_payload(args.json_out, payload(rows, shape))
    if args.smoke:
        print("smoke OK")
        return 0
    check(rows)
    write_json(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
