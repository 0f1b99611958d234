"""Secure fixed-point truncation: per-element cost, warm vs cold pools,
and measured-vs-model wire bytes.

Per-layer rescaling is the glue that lets quantized inference compose
(every product doubles the fixed-point scale until a truncation brings
it back), so its per-element cost lands on the critical path of every
linear layer.  This benchmark measures both executable protocols
through the provisioning runtime:

* **pair mode** -- one pooled (r, r >> f) truncation pair per element,
  online cost a single opening round.  Preprocessing (TPRC production:
  two millionaires' comparisons + Gilboa B2A per pair) is timed
  separately, so the warm-vs-cold split shows what the preprocessing
  phase buys.
* **exact mode** -- the wrap-fixed comparison protocol (bit-exact
  floor), whose online phase consumes pooled comparison COTs, bit
  triples and B2A ring triples.

Byte accounting is validated exactly: the measured per-tag session
bytes must equal ``trunc_online_bytes`` plus the leader's allocation
offsets and the mux tag framing.  Results go to
``BENCH_truncation.json`` at the repo root.

Run under pytest:   pytest benchmarks/bench_truncation.py --benchmark-only -s
Run standalone:     PYTHONPATH=src python benchmarks/bench_truncation.py
Smoke (CI):         PYTHONPATH=src python benchmarks/bench_truncation.py --smoke
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
from repro.mpc.truncation import (
    FixedPointConfig,
    trunc_draws,
    trunc_online_bytes,
    trunc_online_messages,
    trunc_via_service,
)
from repro.ot.channel import LocalChannel, run_concurrently
from repro.ppml.plan import CorrelationDemand
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.utils.tables import print_table

PARAMS = LpnParams("bench-trunc", 1 << 14, 512, 512, 32, 0.0)
RING_BITS = 16
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
N_ELEMENTS = {"pair": 512, "exact": 128}
SMOKE_ELEMENTS = {"pair": 32, "exact": 16}
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_truncation.json"
MASK = ring_mask_u64(RING_BITS)

def start_services():
    tuning = ServiceTuning(
        ring_bits=RING_BITS,
        triple_low=256, triple_high=2048, triple_chunk=1024,
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


def run_scenario(mode: str, warm: bool, n: int) -> dict:
    """One fresh service pair; truncate n shared elements online."""
    svc0, svc1, mux0, mux1 = start_services()
    draws = trunc_draws(n, FX, mode)
    demand = CorrelationDemand().add(draws)
    targets = demand.as_pool_targets()
    if mode == "pair":
        svc0.trunc_pool(FX.frac_bits), svc1.trunc_pool(FX.frac_bits)

    preprocessing_s = 0.0
    if warm:
        t0 = time.perf_counter()
        run_concurrently(
            lambda: svc0.prefill(targets, 600.0),
            lambda: svc1.prefill(targets, 600.0),
            timeout=600.0,
        )
        preprocessing_s = time.perf_counter() - t0

    rng = np.random.default_rng(0xF0)
    vals = from_signed(
        rng.integers(-(1 << FX.mag_bits) + 1, 1 << FX.mag_bits, n), RING_BITS
    ).astype(np.uint64)
    shares = share_arith_nd(vals, rng, bits=RING_BITS)

    name = f"trunc-{mode}"
    t1 = time.perf_counter()
    z0, z1 = run_concurrently(
        lambda: trunc_via_service(svc0.session(name), shares[0], FX, mode=mode),
        lambda: trunc_via_service(svc1.session(name), shares[1], FX, mode=mode),
        timeout=600.0,
    )
    online_s = time.perf_counter() - t1

    got = (z0 + z1) & MASK
    expect = FX.trunc_reference(vals)
    diff = FX.to_signed((got - expect) & MASK)
    if mode == "exact":
        assert np.array_equal(got, expect), "exact truncation mismatch"
    else:
        wrap = 1 << (RING_BITS - FX.frac_bits)
        assert np.all(np.isin(diff, [0, 1, -wrap, 1 - wrap])), "pair contract broken"

    tag = f"sess/{name}"
    measured = sum(
        mux.stats_by_tag()[tag].bytes_sent for mux in (mux0, mux1)
    )
    # The leader announces one offset per drawn pool, in one message.
    messages = trunc_online_messages(FX, mode) + 1
    model = (
        trunc_online_bytes(n, FX, mode)
        + 8 * len(draws)
        + (2 + len(tag)) * messages
    )
    stats = svc0.pool_stats()
    stall_s = sum(s["stall_time_s"] for s in stats.values())
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()
    return {
        "mode": mode,
        "warm": warm,
        "elements": n,
        "preprocessing_s": preprocessing_s,
        "online_s": online_s,
        "online_us_per_element": 1e6 * online_s / n,
        "stall_s": stall_s,
        "online_bytes_measured": measured,
        "online_bytes_model": model,
        "bytes_match": measured == model,
        "planned_cots": demand.total_cots(RING_BITS),
    }


def run_all(counts) -> list:
    rows = []
    for mode in ("pair", "exact"):
        rows.append(run_scenario(mode, warm=False, n=counts[mode]))
        rows.append(run_scenario(mode, warm=True, n=counts[mode]))
    return rows


def report(rows) -> None:
    print()
    print_table(
        ["mode", "pools", "n", "preproc (s)", "online (s)", "us/elem", "bytes ok"],
        [
            [
                r["mode"],
                "warm" if r["warm"] else "cold",
                str(r["elements"]),
                f"{r['preprocessing_s']:.2f}",
                f"{r['online_s']:.3f}",
                f"{r['online_us_per_element']:.1f}",
                "yes" if r["bytes_match"] else "NO",
            ]
            for r in rows
        ],
        title=f"Secure truncation ({FX.bits}-bit ring, f={FX.frac_bits}), n={PARAMS.n}",
    )
    for mode in ("pair", "exact"):
        cold = next(r for r in rows if r["mode"] == mode and not r["warm"])
        warm = next(r for r in rows if r["mode"] == mode and r["warm"])
        print(
            f"{mode}: online {cold['online_s']:.3f}s cold -> "
            f"{warm['online_s']:.3f}s warm "
            f"({cold['online_s'] / warm['online_s']:.1f}x with prefilled pools)"
        )


def check(rows) -> None:
    """Acceptance: exact byte models, and warm online materially below cold."""
    assert all(r["bytes_match"] for r in rows), "byte model diverged from the wire"
    for mode in ("pair", "exact"):
        cold = next(r for r in rows if r["mode"] == mode and not r["warm"])
        warm = next(r for r in rows if r["mode"] == mode and r["warm"])
        assert warm["online_s"] < 0.7 * cold["online_s"], (
            f"{mode}: warm online ({warm['online_s']:.3f}s) not materially "
            f"below cold ({cold['online_s']:.3f}s)"
        )


def payload(rows) -> dict:
    speedups = {}
    for mode in ("pair", "exact"):
        cold = next(r for r in rows if r["mode"] == mode and not r["warm"])
        warm = next(r for r in rows if r["mode"] == mode and r["warm"])
        speedups[mode] = cold["online_s"] / warm["online_s"]
    return {
        "bench": "truncation",
        "config": {
            "n": PARAMS.n,
            "k": PARAMS.k,
            "t": PARAMS.t,
            "ring_bits": FX.bits,
            "frac_bits": FX.frac_bits,
            "mag_bits": FX.mag_bits,
            "machine": platform.machine(),
        },
        "scenarios": rows,
        "online_speedup_warm_vs_cold": speedups,
        "bytes_model_matches_measured": all(r["bytes_match"] for r in rows),
    }


def write_json(rows, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload(rows), indent=2) + "\n")
    print(f"wrote {path}")


def test_bench_truncation(benchmark, once):
    rows = once(benchmark, lambda: run_all(N_ELEMENTS))
    report(rows)
    check(rows)
    write_json(rows)
    benchmark.extra_info["pair_speedup"] = rows[0]["online_s"] / rows[1]["online_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_args(
        parser,
        smoke_help="tiny element counts; skips the perf assertion and "
        "does not touch the committed JSON",
    )
    args = parser.parse_args(argv)
    counts = SMOKE_ELEMENTS if args.smoke else N_ELEMENTS
    rows = run_all(counts)
    report(rows)
    if args.json_out is not None:
        write_payload(args.json_out, payload(rows))
    if args.smoke:
        assert all(r["bytes_match"] for r in rows), "byte model diverged"
        print("smoke OK")
        return 0
    check(rows)
    write_json(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
