"""Instrumentation overhead: the flight recorder must be (nearly) free.

The observability layer promises two things: disabled instrumentation
costs nothing on the hot path (every site guards on ``tracer.enabled``
against the shared ``NULL_TRACER``), and *enabled* instrumentation
stays under a 5% tax.  This benchmark measures the second promise the
only honest way -- the same warm pair-mode truncation online phase, on
the same live service pair, with tracing toggled between interleaved
iterations (interleaving cancels drift from pool levels, allocator
state, and CPU frequency).

Headline: **instrumentation_overhead** = min(enabled online) /
min(disabled online).  ``check_regression.py`` gates it at 1.05x in
CI.  Results go to ``BENCH_obs.json`` at the repo root.

Run standalone:     PYTHONPATH=src python benchmarks/bench_obs.py
Smoke (CI):         PYTHONPATH=src python benchmarks/bench_obs.py --smoke
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
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig, trunc_draws, trunc_via_service
from repro.obs import NULL_TRACER, Tracer
from repro.ot.channel import LocalChannel, run_concurrently
from repro.ppml.plan import CorrelationDemand
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.utils.tables import print_table

PARAMS = LpnParams("bench-obs", 1 << 14, 512, 512, 32, 0.0)
RING_BITS = 16
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
N_ELEMENTS = 512
SMOKE_ELEMENTS = 128
ITERS = 8
SMOKE_ITERS = 5
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"
MASK = ring_mask_u64(RING_BITS)
#: CI regression ceiling for min(enabled)/min(disabled).
OVERHEAD_CEILING = 1.05


def start_services():
    tuning = ServiceTuning(
        ring_bits=RING_BITS,
        triple_low=0, triple_high=0, triple_chunk=1024,
        tprc_chunk=1024,
        enable_rots=False,
        take_timeout_s=600.0,
    )
    cfg = FerretConfig(params=PARAMS, arity=4, prg_kind="chacha8")
    base0, base1 = LocalChannel.pair(timeout=600.0)
    mux0 = MuxChannel(base0, timeout=600.0)
    mux1 = MuxChannel(base1, timeout=600.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=0x7C).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=0x7C).start()
    svc0.wait_ready(600.0)
    svc1.wait_ready(600.0)
    return svc0, svc1, mux0, mux1


def run_all(n: int, iters: int) -> dict:
    """One warm service pair; ``iters`` interleaved (disabled, enabled)
    pair-truncation onlines of ``n`` elements each."""
    svc0, svc1, mux0, mux1 = start_services()
    try:
        demand = CorrelationDemand().add(trunc_draws(n, FX, "pair"))
        svc0.trunc_pool(FX.frac_bits), svc1.trunc_pool(FX.frac_bits)
        # Prefill every iteration's demand up front (plus the warmup
        # pass) so the timed onlines never wait on production.
        runs = 2 * iters + 1
        targets = {k: v * runs for k, v in demand.as_pool_targets().items()}
        run_concurrently(
            lambda: svc0.prefill(targets, 600.0),
            lambda: svc1.prefill(targets, 600.0),
            timeout=600.0,
        )

        rng = np.random.default_rng(0x0B5)
        vals = from_signed(
            rng.integers(-(1 << FX.mag_bits) + 1, 1 << FX.mag_bits, n), RING_BITS
        ).astype(np.uint64)
        shares = share_arith_nd(vals, rng, bits=RING_BITS)
        tracers = [Tracer(party=0), Tracer(party=1)]

        def online(label: str) -> float:
            name = f"obs-{label}"
            t0 = time.perf_counter()
            z0, z1 = run_concurrently(
                lambda: trunc_via_service(
                    svc0.session(name), shares[0], FX, mode="pair"
                ),
                lambda: trunc_via_service(
                    svc1.session(name), shares[1], FX, mode="pair"
                ),
                timeout=600.0,
            )
            elapsed = time.perf_counter() - t0
            assert ((z0 + z1) & MASK).shape == vals.shape
            return elapsed

        online("warmup")
        disabled, enabled = [], []
        for i in range(iters):
            svc0.set_tracer(NULL_TRACER), svc1.set_tracer(NULL_TRACER)
            disabled.append(online(f"off-{i}"))
            svc0.set_tracer(tracers[0]), svc1.set_tracer(tracers[1])
            enabled.append(online(f"on-{i}"))
        telemetry = svc0.telemetry()
        trace_events = sum(len(tr.events) for tr in tracers)
    finally:
        svc0.stop(), svc1.stop()
        mux0.close(), mux1.close()
    return {
        "elements": n,
        "iters": iters,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "min_disabled_s": min(disabled),
        "min_enabled_s": min(enabled),
        "instrumentation_overhead": min(enabled) / min(disabled),
        "trace_events": trace_events,
        "telemetry_keys": len(telemetry),
    }


def report(row) -> None:
    print()
    print_table(
        ["tracing", "iters", "min online (s)", "median online (s)"],
        [
            [
                label,
                str(row["iters"]),
                f"{min(times):.4f}",
                f"{sorted(times)[len(times) // 2]:.4f}",
            ]
            for label, times in (
                ("disabled", row["disabled_s"]),
                ("enabled", row["enabled_s"]),
            )
        ],
        title=(
            f"Instrumentation overhead, pair truncation n={row['elements']}, "
            f"interleaved"
        ),
    )
    print(
        f"\noverhead min(enabled)/min(disabled) = "
        f"{row['instrumentation_overhead']:.3f}x "
        f"({row['trace_events']} trace events recorded, "
        f"{row['telemetry_keys']} telemetry keys)"
    )


def check(row) -> None:
    """Acceptance: enabled tracing stays under the 5% tax."""
    assert row["instrumentation_overhead"] < OVERHEAD_CEILING, (
        f"enabled instrumentation costs "
        f"{row['instrumentation_overhead']:.3f}x >= {OVERHEAD_CEILING}x"
    )
    assert row["trace_events"] > 0, "enabled runs recorded no events"
    assert row["telemetry_keys"] > 0, "telemetry snapshot is empty"


def payload(row) -> dict:
    return {
        "bench": "obs",
        "config": {
            "n": PARAMS.n,
            "k": PARAMS.k,
            "t": PARAMS.t,
            "ring_bits": RING_BITS,
            "frac_bits": FX.frac_bits,
            "elements": row["elements"],
            "iters": row["iters"],
            "machine": platform.machine(),
        },
        "scenario": row,
        "instrumentation_overhead": row["instrumentation_overhead"],
        "trace_events": row["trace_events"],
        "telemetry_keys": row["telemetry_keys"],
    }


def write_json(row, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload(row), indent=2) + "\n")
    print(f"wrote {path}")


def test_bench_obs(benchmark, once):
    row = once(benchmark, lambda: run_all(N_ELEMENTS, ITERS))
    report(row)
    check(row)
    write_json(row)
    benchmark.extra_info["overhead"] = row["instrumentation_overhead"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_args(
        parser,
        smoke_help="fewer elements/iterations; skips the overhead "
        "assertion (CI gates the ratio via check_regression instead) "
        "and does not touch the committed JSON",
    )
    args = parser.parse_args(argv)
    n = SMOKE_ELEMENTS if args.smoke else N_ELEMENTS
    iters = SMOKE_ITERS if args.smoke else ITERS
    row = run_all(n, iters)
    report(row)
    if args.json_out is not None:
        write_payload(args.json_out, payload(row))
    if args.smoke:
        assert row["trace_events"] > 0, "enabled runs recorded no events"
        print("smoke OK")
        return 0
    check(row)
    write_json(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
