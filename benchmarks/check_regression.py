"""CI benchmark regression gate: smoke runs vs. the committed baseline.

The committed ``BENCH_*.json`` files record full-scale headline numbers,
but CI only runs the ``--smoke`` shapes -- so raw times are not
comparable across scales (or runner hardware).  What IS comparable is
each benchmark's **warm-path ratio**: how much faster the
pooled/preprocessed path is than its cold counterpart *at the same
smoke scale on the same machine*.  Machine speed cancels in the ratio,
and a dead pool (production silently stalling the warm path) collapses
it toward 1.

This gate reads the smoke payloads the benchmarks wrote with
``--json-out``, compares each warm-path metric against the committed
smoke baseline (``BENCH_smoke_baseline.json``), and fails the job when
a metric regressed by more than ``--factor`` (default 3x -- tolerant
enough for CI-runner noise and scheduling jitter, tight enough that a
dead pool or an accidentally-cold warm path cannot slip through).

Ratios cancel exactly what a cold start costs, so the gate also holds
one **absolute** budget: the perf ledger's ``ote_stream`` smoke run
(``benchmarks/ledger/run.py --out <dir>/ledger_ote.json``) must set up
its Ferret pair within ``LEDGER_BUDGETS`` seconds and fail no
operation.  The budget sits an order of magnitude above a healthy run
(~0.3 s: 128 PKC OTs + one COT extension) and well below what any
per-COT public-key path costs (~15 s), so runner speed cannot trip it
and a regression to thousands of modexps cannot pass it.  Next to it
sit ranges on the same run's traced rows (``LEDGER_ROWS``): three
**exact counts** -- one SPCOT exchange per extend -- and one **share**,
LPN encode's part of the sender's extend lane.  Counts repeat exactly
on any runner; timings do not, but a share of one run's own extend time
cancels runner speed too.  A traced ``infer_single`` run
(``--out <dir>/ledger_infer.json``) must report every online-op row
(``LEDGER_ONLINE_ROWS``): the ledger times those ops by patching their
call sites from outside, so a refactor that moves them reads as zero.
The same run carries one more share: matrix-triple production's part of
the worker's six ``produce.*`` rows (``MTRI_SHARE_CEILING``).

Usage:
    # in CI, after running each bench with --smoke --json-out <dir>/...
    python benchmarks/check_regression.py --smoke-dir <dir>

    # after intentional perf changes, refresh the committed baseline
    python benchmarks/check_regression.py --smoke-dir <dir> --update
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_smoke_baseline.json"

#: Bench name -> warm-path ratio extractor over that bench's payload.
METRICS = {
    "runtime_service": lambda p: p["amortization_gain"],
    "preprocessing": lambda p: p["online_speedup_warm_vs_cold"],
    "truncation": lambda p: p["online_speedup_warm_vs_cold"]["pair"],
    "pipeline": lambda p: p["ttfo_speedup"],
    "faults": lambda p: p["recovery_efficiency"],
    "obs": lambda p: p["instrumentation_overhead"],
    "sharded": lambda p: p["scaling"]["2"],
    "daemon": lambda p: p["cross_request_speedup"],
}

#: Metrics that only make sense on runners with enough cores, mapped to
#: the minimum count.  The 2-shard ratio runs 4 producer processes plus
#: both service parties: on a <4-core host the measurement is pure
#: scheduling noise on either side of 1.0, so the floor fails
#: spuriously.  (PR 8 already gates the >=2.5x@4-shard *assertion* on
#: core count; the smoke ratio floor needs the same guard.)
MIN_CORES = {
    "sharded": 4,
}

#: What each metric means, for the failure message.
DESCRIPTIONS = {
    "runtime_service": "per-COT amortization gain (1 session vs many)",
    "preprocessing": "warm-pool vs cold online speedup",
    "truncation": "pair-mode warm vs cold online speedup",
    "pipeline": "time-to-first-layer-online, all-at-once vs pipelined",
    "faults": "chaos recovery efficiency (clean e2e / faulted e2e)",
    "obs": "enabled-instrumentation overhead (traced / untraced online)",
    "sharded": "2-shard vs 1-shard COT serve throughput ratio",
    "daemon": "warm steady-state vs first-request time-to-first-layer-online",
}

#: Ceiling metrics: *lower* is better, and the committed baseline value
#: is a fixed contract rather than a measurement -- the gate fails when
#: the smoke value exceeds it.  The relative-factor and floor logic
#: (built for higher-is-better warm-path ratios) does not apply.
CEILINGS = {
    # The flight recorder's promise: enabling spans + metrics on a live
    # service costs under 5% of warm online time.
    "obs": 1.05,
}

#: Absolute floors, enforced independently of the relative factor.  A
#: completely broken warm path collapses each ratio to ~1.0x, and for
#: low-baseline metrics baseline/factor can fall below that -- the
#: relative gate alone would wave the breakage through.  Floors sit
#: between "dead" (~1.0x) and the low end of healthy smoke runs.
FLOORS = {
    "preprocessing": 1.2,
    "pipeline": 1.3,
    # Recovery efficiency sits near 1.0 when redials heal in
    # milliseconds; a resume path that limps through on retry-budget
    # exhaustion collapses it by orders of magnitude.  The bench itself
    # hangs (and fails CI) when recovery breaks outright, so the floor
    # only needs to catch "recovers, but pathologically slowly".
    "faults": 0.05,
    # Shard scaling is core-count-bound: 1-2 core CI runners measure
    # BELOW 1.0x (process overhead, no parallelism), so the floor only
    # guards against a merge path that has collapsed outright -- a
    # stalled merger shows up as a near-zero ratio (or a bench hang)
    # long before it shows up as "merely not scaling".
    "sharded": 0.3,
    # Cross-request pipelining: a daemon whose prefill scheduler stopped
    # overlapping request r+1's production with request r's online tail
    # collapses the steady-state/first-request ratio to ~1.0x.
    "daemon": 1.05,
}


#: The ledger smoke result checked against absolute budgets, and the
#: ceiling on each of its ``end_to_end`` entries (same units as there).
LEDGER_SMOKE = "ledger_ote.json"
LEDGER_BUDGETS = {
    "setup_s": 3.0,
}

#: Allowed ``(lowest, highest, what a miss suggests)`` of ``per_layer``
#: rows of that run (per extend, the sender's lane).  Exact counts: the
#: one-shot SPCOT is one channel round trip, one batched OT and three
#: messages (two OT vectors, masked sums + psi) per extend at the
#: ledger's scale, where all trees share one depth; a per-level exchange
#: creeping back in reads 12 / 12 / 31.  One share: the column-at-a-time
#: LPN gather-XOR is ~0.06 of the lane; a gather of all d rows walked by
#: a strided ``reduce`` (what it replaced) reads >= 0.4.  An untraced
#: smoke run has no such rows at all.
_PER_LEVEL = "is SPCOT exchanging per GGM level again"
LEDGER_ROWS = {
    "rounds_per_extend": (1, 1, _PER_LEVEL),
    "ot_from_cot.calls.snd": (1, 1, _PER_LEVEL),
    "channel.msgs.snd": (1, 3, _PER_LEVEL),
    "ote.lpn_share.snd": (
        0, 0.25, "is repro.lpn.encode gathering whole (rows, d) temporaries again",
    ),
}


#: The traced ``infer_single`` smoke result and the online-op rows it
#: must carry (see the module docstring).
LEDGER_INFER_SMOKE = "ledger_infer.json"
LEDGER_ONLINE_ROWS = (
    "online.linear_rescale_ms.p0",
    "online.linear_ms.p0",
    "online.relu_ms.p0",
)


#: Ceiling on ``produce.MTRI`` as a share of that run's summed
#: ``produce.*.ms_per_req.p0`` rows (one run's own worker time, so runner
#: speed cancels).  0.33 with Gilboa pads packed eight to an AES block on
#: the ledger's 16-bit ring; 0.57 when every two pads cost a block.
PRODUCE_OPS = ("EXT0", "EXT1", "TRI", "RTRI", "MTRI", "TPRC")
MTRI_SHARE_CEILING = 0.45


def load_ledger(path: Path) -> dict:
    if not path.exists():
        raise SystemExit(
            f"regression gate: missing {path} (did the ledger smoke step run "
            "with --out?)"
        )
    return json.loads(path.read_text())


def check_ledger_infer(path: Path) -> list:
    """Every online-op row of the traced infer_single run is non-zero, and
    matrix triples are not most of the worker's production time."""
    rows = load_ledger(path)["per_layer"]
    failures = []
    dead = [name for name in LEDGER_ONLINE_ROWS if not rows.get(name)]
    print(f"  ledger/online-op rows  {len(LEDGER_ONLINE_ROWS) - len(dead)} of "
          f"{len(LEDGER_ONLINE_ROWS)} non-zero   {'MISSING' if dead else 'ok'}")
    if dead:
        failures.append(
            f"ledger infer_single: {', '.join(dead)} missing or 0 -- "
            "benchmarks/ledger/spans.py PATCHES wraps repro.runtime.daemon."
            "{matmul_rescale_via_service, matmul_via_service, relu_via_service}; "
            "run_online must call them through that module (or the smoke run "
            "lacked --trace 1)"
        )
    produce = {op: rows.get(f"produce.{op}.ms_per_req.p0") or 0.0 for op in PRODUCE_OPS}
    mtri = produce["MTRI"]
    share = mtri / sum(produce.values()) if mtri else float("nan")  # untraced: no rows
    ok = share <= MTRI_SHARE_CEILING
    print(f"  ledger/produce.MTRI share  {share:.3f}   ceiling  {MTRI_SHARE_CEILING}"
          f"   {'ok' if ok else 'OUT OF RANGE'}")
    if not ok:
        failures.append(
            f"ledger infer_single: produce.MTRI is {share:.3f} of the produce.* "
            f"rows, expected <= {MTRI_SHARE_CEILING} -- is repro.mpc.triples."
            "_expand_ring_pads hashing once per two ring pads again instead of "
            "once per 128 // lane-width (or was the smoke run made without "
            "--trace 1)?"
        )
    return failures


def check_ledger(path: Path) -> list:
    """Absolute gate over one ledger run; returns failure strings."""
    result = load_ledger(path)
    failures = []
    for name, budget in LEDGER_BUDGETS.items():
        value = result["end_to_end"][name]
        status = "ok"
        if value > budget:
            status = "OVER BUDGET"
            failures.append(
                f"ledger {result['workload']}: {name} = {value:.2f}, over the "
                f"absolute budget {budget:.2f} -- is setup running per-COT "
                "public-key OTs again?"
            )
        print(f"  ledger/{name:9s} {value:8.2f}   budget   {budget:7.2f}   {status}")
    for name, (lowest, highest, hint) in LEDGER_ROWS.items():
        value = result["per_layer"].get(name)
        status = "ok"
        if value is None or not lowest <= value <= highest:
            status = "OUT OF RANGE"
            failures.append(
                f"ledger {result['workload']}: {name} = {value}, expected "
                f"{lowest}..{highest} -- {hint} (or was the smoke run made "
                "without --trace 1)?"
            )
        print(f"  ledger/{name:21s} {value}   allowed  {lowest}..{highest}   {status}")
    if result["failed"]:
        failures.append(
            f"ledger {result['workload']}: {result['failed']} of "
            f"{result['attempted']} operations failed: {result['problems']}"
        )
    return failures


def load_smoke(smoke_dir: Path) -> dict:
    metrics = {}
    missing = []
    for name, extract in METRICS.items():
        path = smoke_dir / f"BENCH_{name}.smoke.json"
        if not path.exists():
            missing.append(str(path))
            continue
        metrics[name] = float(extract(json.loads(path.read_text())))
    if missing:
        raise SystemExit(
            "regression gate: missing smoke payloads (did every bench run "
            f"with --json-out?): {', '.join(missing)}"
        )
    return metrics


def update_baseline(metrics: dict, path: Path) -> None:
    # Ceiling metrics stay pinned at their contract value: refreshing
    # the baseline after a perf change must not quietly loosen (or
    # tighten, on a lucky run) the instrumentation-overhead gate.
    metrics = {**metrics, **CEILINGS}
    payload = {
        "bench": "smoke_baseline",
        "note": (
            "warm-path ratio metrics measured at --smoke scale on a healthy "
            "tree; refreshed via benchmarks/check_regression.py --update"
        ),
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def check(metrics: dict, baseline: dict, factor: float, cores: int = None) -> list:
    """Returns failure strings; empty means the gate passes."""
    if cores is None:
        cores = os.cpu_count() or 1
    failures = []
    for name, value in sorted(metrics.items()):
        need = MIN_CORES.get(name)
        if need is not None and cores < need:
            print(
                f"  {name:16s} {value:8.2f}x  skipped: host has {cores} "
                f"core(s), metric needs >= {need} to be meaningful"
            )
            continue
        base = baseline.get(name)
        if name in CEILINGS:
            ceiling = base if base is not None else CEILINGS[name]
            status = "ok"
            if value > ceiling:
                status = "REGRESSED"
                failures.append(
                    f"{name}: {DESCRIPTIONS[name]} rose to {value:.3f}x, "
                    f"above the ceiling {ceiling:.2f}x -- did an "
                    "instrumentation site lose its tracer.enabled guard?"
                )
            print(f"  {name:16s} {value:8.2f}x  ceiling  {ceiling:7.2f}x  {status}")
            continue
        floor = FLOORS.get(name, 0.0)
        status = "ok"
        if value < floor:
            status = "REGRESSED"
            failures.append(
                f"{name}: {DESCRIPTIONS[name]} fell to {value:.2f}x, below "
                f"the absolute floor {floor:.2f}x -- the warm path is no "
                "better than cold; is a pool dead or a prefill skipped?"
            )
        elif base is None:
            status = "no baseline (skipped)"
        elif value * factor < base:
            status = "REGRESSED"
            failures.append(
                f"{name}: {DESCRIPTIONS[name]} fell to {value:.2f}x "
                f"(baseline {base:.2f}x, allowed floor {base / factor:.2f}x) "
                "-- warm path slowed >"
                f"{factor:.0f}x; is a pool dead or a prefill skipped?"
            )
        base_str = "-" if base is None else f"{base:8.2f}x"
        print(f"  {name:16s} {value:8.2f}x  baseline {base_str}  {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke-dir",
        type=Path,
        required=True,
        help="directory holding the BENCH_<name>.smoke.json payloads",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=3.0,
        help="maximum tolerated warm-path slowdown vs baseline (default 3x)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baseline from this smoke run instead "
        "of gating against it",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help="baseline JSON path (default: committed BENCH_smoke_baseline.json)",
    )
    args = parser.parse_args(argv)
    metrics = load_smoke(args.smoke_dir)
    if args.update:
        update_baseline(metrics, args.baseline)
        return 0
    if not args.baseline.exists():
        raise SystemExit(
            f"regression gate: no baseline at {args.baseline}; run with "
            "--update on a healthy tree first"
        )
    baseline = json.loads(args.baseline.read_text())["metrics"]
    print(f"benchmark regression gate (tolerance {args.factor:.0f}x):")
    failures = check(metrics, baseline, args.factor)
    failures += check_ledger(args.smoke_dir / LEDGER_SMOKE)
    failures += check_ledger_infer(args.smoke_dir / LEDGER_INFER_SMOKE)
    if failures:
        print("\nFAIL:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("regression gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
