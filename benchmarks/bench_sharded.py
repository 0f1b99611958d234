"""COT throughput scaling under process-sharded production.

The provisioning service's single worker thread caps raw-COT
production at one core.  ``ServiceTuning.shards`` moves extends into N
producer process pairs (:mod:`repro.runtime.shard`), each its own
interpreter with its own socket.  This benchmark sweeps the shard count
(1 / 2 / 4 / 8) over an otherwise identical service pair and reports:

* aggregate forward-COT serve throughput (drawn COTs/s);
* scaling ratio vs the 1-shard (in-thread, byte-identical) baseline;
* per-shard extend counts and busy time from the ``shard/`` telemetry.

Scaling is bounded by the runner's core count (recorded in the
payload): on a 1-core box the sweep still validates correctness and
the merge path, but ratios hover near (or below) 1.  The acceptance
ratio (>= 2.5x at 4 shards) is asserted only when the host has >= 4
CPUs.

Headline numbers land in ``BENCH_sharded.json`` at the repo root.

Run standalone:     PYTHONPATH=src python benchmarks/bench_sharded.py
Smoke (CI):         PYTHONPATH=src python benchmarks/bench_sharded.py --smoke
Timeline:           ... --trace-out sharded.trace.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

from bench_io import add_bench_args, write_payload, write_trace

from repro.ferret.config import FerretConfig
from repro.lpn.params import LpnParams
from repro.obs.trace import Tracer
from repro.ot.channel import LocalChannel
from repro.ot.cot import verify_cot
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.utils.tables import print_table

#: Forward-direction COT provisioning at a 2^14 operating point.
PARAMS = LpnParams("bench-shard", 1 << 14, 512, 512, 32, 0.0)
SHARD_COUNTS = (1, 2, 4, 8)
TOTAL_DRAW = 120_000
CHUNK = 2048
SESSIONS = 2
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_sharded.json"


def make_config(smoke: bool) -> FerretConfig:
    if smoke:
        return FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
    return FerretConfig(params=PARAMS, arity=4, prg_kind="chacha8")


def run_scenario(
    shards: int, total_draw: int, chunk: int, smoke: bool, tracers=None
) -> dict:
    """One sweep point: a service pair at ``shards`` producer shards."""
    cfg = make_config(smoke)
    tuning = ServiceTuning(
        shards=shards,
        enable_reverse=False,
        enable_triples=False,
        enable_rots=False,
        take_timeout_s=600.0,
    )
    base_a, base_b = LocalChannel.pair(timeout=600.0)
    mux0, mux1 = MuxChannel(base_a, timeout=600.0), MuxChannel(base_b, timeout=600.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=0x5A8D).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=0x5A8D).start()
    if tracers is not None:
        svc0.set_tracer(tracers[0])
        svc1.set_tracer(tracers[1])

    t0 = time.perf_counter()
    svc0.wait_ready(600.0)
    svc1.wait_ready(600.0)
    setup_s = time.perf_counter() - t0

    per_session = total_draw // SESSIONS
    results = {}
    errors = []

    def consumer(party, svc, idx):
        try:
            session = svc.session(f"shard-bench-{idx}")
            first = None
            remaining = per_session
            while remaining:
                n = min(chunk, remaining)
                (batch,), _ = session.draw([("cot/fwd", (), n)])
                if first is None:
                    first = batch
                remaining -= n
            results[(party, idx)] = first
        except BaseException as exc:  # noqa: BLE001
            errors.append((party, idx, exc))

    threads = []
    for idx in range(SESSIONS):
        threads.append(threading.Thread(target=consumer, args=(0, svc0, idx)))
        threads.append(threading.Thread(target=consumer, args=(1, svc1, idx)))
    t1 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(600.0)
    serve_s = time.perf_counter() - t1
    hung = [t.name for t in threads if t.is_alive()]
    assert not hung, f"sessions hung past the join timeout: {hung}"
    assert not errors, f"sessions failed: {errors}"
    for idx in range(SESSIONS):
        assert verify_cot(results[(0, idx)], results[(1, idx)])

    total_cots = per_session * SESSIONS
    tel = svc0.telemetry()
    per_shard = {
        k[len("shard/"):]: v for k, v in tel.items() if k.startswith("shard/")
    }
    pool_stall = tel.get("pool/cot/fwd/stall_time_s", 0.0)
    svc0.stop()
    svc1.stop()
    mux0.close(), mux1.close()
    return {
        "shards": shards,
        "lpn_n": cfg.params.n,
        "net_output": cfg.net_output,
        "cots_drawn": total_cots,
        "setup_s": setup_s,
        "serve_s": serve_s,
        "throughput_cots_per_s": total_cots / serve_s,
        "extends": svc0.extends["fwd"],
        "pool_stall_s": pool_stall,
        "shard_telemetry": per_shard,
    }


def run_all(shard_counts, total_draw, chunk, smoke, tracers=None) -> list:
    rows = []
    for shards in shard_counts:
        rows.append(run_scenario(shards, total_draw, chunk, smoke, tracers))
    base = rows[0]["throughput_cots_per_s"]
    for r in rows:
        r["scaling_vs_1shard"] = r["throughput_cots_per_s"] / base
    return rows


def report(rows: list) -> None:
    print()
    print_table(
        ["shards", "COTs", "setup (s)", "serve (s)", "COTs/s", "scaling",
         "extends", "stall (s)"],
        [
            [
                str(r["shards"]),
                f"{r['cots_drawn']:,}",
                f"{r['setup_s']:.2f}",
                f"{r['serve_s']:.2f}",
                f"{r['throughput_cots_per_s']:,.0f}",
                f"{r['scaling_vs_1shard']:.2f}x",
                str(r["extends"]),
                f"{r['pool_stall_s']:.2f}",
            ]
            for r in rows
        ],
        title=f"Sharded COT production sweep ({os.cpu_count()} CPUs)",
    )


def payload(rows: list) -> dict:
    return {
        "bench": "sharded",
        "config": {
            "lpn_n": rows[0]["lpn_n"] if rows else None,
            "sessions": SESSIONS,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "scenarios": rows,
        "scaling": {
            str(r["shards"]): r["scaling_vs_1shard"] for r in rows
        },
    }


def check(rows: list) -> None:
    """Acceptance: near-linear scaling where the host has the cores.

    >= 2.5x at 4 shards is only meaningful on a 4+-core runner; on
    smaller hosts the sweep validates correctness and the ratios are
    reported without being asserted.
    """
    cpus = os.cpu_count() or 1
    by_shards = {r["shards"]: r for r in rows}
    if cpus >= 4 and 4 in by_shards:
        ratio = by_shards[4]["scaling_vs_1shard"]
        assert ratio >= 2.5, f"4-shard scaling {ratio:.2f}x < 2.5x on {cpus} CPUs"
    elif 4 in by_shards:
        print(
            f"note: {cpus} CPU(s) -- skipping the 4-shard >=2.5x assertion "
            f"(measured {by_shards[4]['scaling_vs_1shard']:.2f}x)"
        )


def write_json(rows: list, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload(rows), indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_args(
        parser,
        smoke_help="tiny run (1 and 2 shards, small params/draws) that "
        "skips the scaling assertion and does not touch the committed JSON",
        trace=True,
    )
    args = parser.parse_args(argv)
    tracers = None
    if args.trace_out is not None:
        tracers = [Tracer(party=0), Tracer(party=1)]
    if args.smoke:
        rows = run_all((1, 2), 6000, 512, smoke=True, tracers=tracers)
        report(rows)
        if args.json_out is not None:
            write_payload(args.json_out, payload(rows))
        if args.trace_out is not None:
            write_trace(args.trace_out, tracers)
        print("smoke OK")
        return 0
    rows = run_all(SHARD_COUNTS, TOTAL_DRAW, CHUNK, smoke=False, tracers=tracers)
    report(rows)
    check(rows)
    write_json(rows)
    if args.json_out is not None:
        write_payload(args.json_out, payload(rows))
    if args.trace_out is not None:
        write_trace(args.trace_out, tracers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
