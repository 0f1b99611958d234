"""Amortized COT cost under the correlation provisioning runtime.

The paper's Figure 1(b) argument: OT extension has a fixed Init cost
(PKC base OTs) that amortizes across extends.  The runtime subsystem
takes the next step -- ONE service pair amortizes that Init across any
number of concurrent consumer *sessions* sharing the link through the
mux.  This benchmark measures, for 1 / 4 / 16 concurrent sessions:

* amortized per-COT cost (setup + serve wall over total COTs drawn) --
  must *improve* as session count grows;
* aggregate serve throughput (COTs/s across all sessions);
* pool behaviour (hit rate, stall time) and per-tag link attribution.

Headline numbers land in ``BENCH_runtime_service.json`` at the repo
root (committed, so future PRs have a trajectory to compare against).

Run under pytest:   pytest benchmarks/bench_runtime_service.py --benchmark-only -s
Run standalone:     PYTHONPATH=src python benchmarks/bench_runtime_service.py
Smoke (CI):         PYTHONPATH=src python benchmarks/bench_runtime_service.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from pathlib import Path

from bench_io import add_bench_args, write_payload

from repro.ferret.config import FerretConfig
from repro.lpn.params import LpnParams
from repro.ot.channel import LocalChannel
from repro.ot.cot import verify_cot
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.utils.tables import print_table

#: Forward-direction COT provisioning at a 2^14 operating point.
PARAMS = LpnParams("bench-svc", 1 << 14, 512, 512, 32, 0.0)
SESSION_COUNTS = (1, 4, 16)
DRAW_PER_SESSION = 5000
CHUNK = 512
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_runtime_service.json"


def make_config() -> FerretConfig:
    return FerretConfig(params=PARAMS, arity=4, prg_kind="chacha8")


def run_scenario(n_sessions: int, draw_per_session: int, chunk: int) -> dict:
    """One service pair serving n concurrent sessions; returns metrics."""
    cfg = make_config()
    tuning = ServiceTuning(
        enable_reverse=False,
        enable_triples=False,
        enable_rots=False,
        cot_low=max(1, cfg.net_output // 4),
        cot_high=cfg.net_output,
        take_timeout_s=600.0,
    )
    base_a, base_b = LocalChannel.pair(timeout=600.0)
    mux0, mux1 = MuxChannel(base_a, timeout=600.0), MuxChannel(base_b, timeout=600.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=0xBEC).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=0xBEC).start()

    t0 = time.perf_counter()
    svc0.wait_ready(600.0)
    svc1.wait_ready(600.0)
    setup_s = time.perf_counter() - t0

    results = {}
    errors = []

    def consumer(party, svc, idx):
        try:
            session = svc.session(f"bench-{idx}")
            drawn = []
            remaining = draw_per_session
            while remaining:
                n = min(chunk, remaining)
                drawn.extend(session.draw([("cot/fwd", (), n)])[0])
                remaining -= n
            results[(party, idx)] = drawn
        except BaseException as exc:  # noqa: BLE001
            errors.append((party, idx, exc))

    threads = []
    for idx in range(n_sessions):
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

    # Spot-check correctness: first chunk of every session verifies.
    for idx in range(n_sessions):
        assert verify_cot(results[(0, idx)][0], results[(1, idx)][0])

    svc0.stop()
    svc1.stop()
    total_cots = n_sessions * draw_per_session
    pool = svc0.pool_stats()["cot/fwd"]
    by_tag = mux0.stats_by_tag()
    prov_bytes = sum(s.total_bytes for t, s in by_tag.items() if t.startswith("prov/"))
    sess_bytes = sum(s.total_bytes for t, s in by_tag.items() if t.startswith("sess/"))
    mux0.close(), mux1.close()
    return {
        "sessions": n_sessions,
        "cots_drawn": total_cots,
        "setup_s": setup_s,
        "serve_s": serve_s,
        "amortized_us_per_cot": 1e6 * (setup_s + serve_s) / total_cots,
        "throughput_cots_per_s": total_cots / serve_s,
        "extends": svc0.extends["fwd"],
        "pool_hit_rate": pool["hit_rate"],
        "pool_stall_s": pool["stall_time_s"],
        "prov_bytes": prov_bytes,
        "sess_bytes": sess_bytes,
    }


def run_all(session_counts, draw_per_session, chunk) -> list:
    return [run_scenario(s, draw_per_session, chunk) for s in session_counts]


def report(rows: list) -> None:
    print()
    print_table(
        ["sessions", "COTs", "setup (s)", "serve (s)", "us/COT", "COTs/s",
         "extends", "hit rate"],
        [
            [
                str(r["sessions"]),
                f"{r['cots_drawn']:,}",
                f"{r['setup_s']:.2f}",
                f"{r['serve_s']:.2f}",
                f"{r['amortized_us_per_cot']:.1f}",
                f"{r['throughput_cots_per_s']:,.0f}",
                str(r["extends"]),
                f"{r['pool_hit_rate']:.2f}",
            ]
            for r in rows
        ],
        title=(
            f"Provisioning service, n={PARAMS.n}, "
            f"{rows[0]['cots_drawn'] // rows[0]['sessions']} COTs/session"
        ),
    )
    base = rows[0]["amortized_us_per_cot"]
    best = rows[-1]["amortized_us_per_cot"]
    print(
        f"\namortized per-COT cost {base:.1f} -> {best:.1f} us "
        f"({base / best:.1f}x better at {rows[-1]['sessions']} sessions)"
    )


def payload(rows: list) -> dict:
    return {
        "bench": "runtime_service",
        "config": {
            "n": PARAMS.n,
            "k": PARAMS.k,
            "t": PARAMS.t,
            "arity": 4,
            "prg_kind": "chacha8",
            "draw_per_session": DRAW_PER_SESSION,
            "chunk": CHUNK,
            "machine": platform.machine(),
        },
        "scenarios": rows,
        "amortization_gain": rows[0]["amortized_us_per_cot"]
        / rows[-1]["amortized_us_per_cot"],
    }


def write_json(rows: list, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload(rows), indent=2) + "\n")
    print(f"wrote {path}")


def check(rows: list) -> None:
    """Acceptance: amortized per-COT cost improves as sessions grow."""
    costs = [r["amortized_us_per_cot"] for r in rows]
    for earlier, later in zip(costs, costs[1:]):
        assert later < earlier, f"amortized cost regressed: {costs}"


def test_bench_runtime_service(benchmark, once):
    rows = once(benchmark, lambda: run_all(SESSION_COUNTS, DRAW_PER_SESSION, CHUNK))
    report(rows)
    check(rows)
    write_json(rows)
    benchmark.extra_info["amortization_gain"] = (
        rows[0]["amortized_us_per_cot"] / rows[-1]["amortized_us_per_cot"]
    )
    benchmark.extra_info["throughput_16_sessions"] = rows[-1]["throughput_cots_per_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_args(
        parser,
        smoke_help="tiny run (1 and 4 sessions, small draws) that skips "
        "the perf assertion and does not touch the committed JSON",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_all((1, 4), 600, 200)
        report(rows)
        if args.json_out is not None:
            write_payload(args.json_out, payload(rows))
        print("smoke OK")
        return 0
    rows = run_all(SESSION_COUNTS, DRAW_PER_SESSION, CHUNK)
    report(rows)
    check(rows)
    write_json(rows)
    if args.json_out is not None:
        write_payload(args.json_out, payload(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
