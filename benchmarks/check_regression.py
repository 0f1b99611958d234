"""CI benchmark regression gate: smoke runs vs. the committed baseline.

Three legacy runtime benches still hold a behaviour no perf-ledger
workload gates yet.  CI runs each at its ``--smoke`` shape, so raw
times are not comparable across scales (or runner hardware); what IS
comparable is one **ratio** of two runs at the same smoke scale on the
same machine, where machine speed cancels:

* ``faults`` -- recovery efficiency, clean e2e / chaos e2e
  (``bench_faults``: a resume path that limps collapses it);
* ``obs`` -- traced / untraced warm online time, the median of
  per-pair ratios over pairs whose first side alternates
  (``bench_obs``: a fixed ceiling, the flight recorder's <= 1.05x
  contract);
* ``daemon`` -- first-request / steady-state time-to-first-layer-online
  (``bench_daemon``: a daemon that stopped overlapping request r+1's
  production with request r collapses it toward 1).

This gate reads the smoke payloads the benchmarks wrote with
``--json-out``, compares each ratio against the committed smoke
baseline (``BENCH_smoke_baseline.json``), and fails the job when a
ratio regressed by more than ``--factor`` (default 3x -- tolerant
enough for CI-runner noise and scheduling jitter), fell below its
absolute floor (``FLOORS``) or rose above its ceiling (``CEILINGS``).

Ratios cancel exactly what a cold start costs, so the gate also holds
one **absolute** budget: the perf ledger's ``ote_stream`` smoke run
(``benchmarks/ledger/run.py --out <dir>/ledger_ote.json``) must set up
its Ferret pair within ``LEDGER_BUDGETS`` seconds and fail no
operation.  The budget sits far above a healthy run (traced smoke runs
read 0.035-0.058 s: 128 P-256 OTs, ~0.03 s, + one COT extension), so
runner speed cannot trip it.  It no longer catches a per-COT
public-key path: 2 709 P-256 OTs take ~0.5 s.  The exact check of one
PKC run per service pair is ``tests/test_cot_extension.py::TestPkcCounts::
test_service_pair_is_one_kappa_pkc_batch_per_side``.  Next to it
sit ranges on the same run's traced rows (``LEDGER_ROWS``): four
**exact counts** -- one SPCOT exchange per extend, and the sender's
PRG calls of a GGM forest pruned to the leaves MPCOT keeps -- and one
**share**, LPN encode's part of the sender's extend lane.  Counts repeat exactly
on any runner; timings do not, but a share of one run's own extend time
cancels runner speed too.  A traced ``infer_single`` run
(``--out <dir>/ledger_infer.json``) must report every online-op row
(``LEDGER_ONLINE_ROWS``): the ledger times those ops by patching their
call sites from outside, so a refactor that moves them reads as zero.
The same run carries three exact per-request counts under ceilings
(``LEDGER_INFER_CEILINGS``): the online phase's wire bytes, the
provisioning traffic's bytes and the link's mux frames.

Usage:
    # in CI, after running each bench with --smoke --json-out <dir>/...
    python benchmarks/check_regression.py --smoke-dir <dir>

    # after intentional perf changes, refresh the committed baseline
    python benchmarks/check_regression.py --smoke-dir <dir> --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_smoke_baseline.json"

#: Bench name -> ratio extractor over that bench's payload.
METRICS = {
    "faults": lambda p: p["recovery_efficiency"],
    "obs": lambda p: p["instrumentation_overhead"],
    "daemon": lambda p: p["cross_request_speedup"],
}

#: What each metric means, for the failure message.
DESCRIPTIONS = {
    "faults": "chaos recovery efficiency (clean e2e / faulted e2e)",
    "obs": "enabled-instrumentation overhead (traced / untraced online)",
    "daemon": "warm steady-state vs first-request time-to-first-layer-online",
}

#: Ceiling metrics: *lower* is better, and the committed baseline value
#: is a fixed contract rather than a measurement -- the gate fails when
#: the smoke value exceeds it.  The relative-factor and floor logic
#: (built for higher-is-better ratios) does not apply.
CEILINGS = {
    # The flight recorder's promise: enabling spans + metrics on a live
    # service costs under 5% of warm online time.
    "obs": 1.05,
}

#: Absolute floors, enforced independently of the relative factor.  For
#: low-baseline metrics baseline/factor can fall below what a broken
#: path reads -- the relative gate alone would wave the breakage
#: through.  Each floor sits between "broken" and the low end of
#: healthy smoke runs.
FLOORS = {
    # Recovery efficiency sits near 1.0 when redials heal in
    # milliseconds; a resume path that limps through on retry-budget
    # exhaustion collapses it by orders of magnitude.  The bench itself
    # hangs (and fails CI) when recovery breaks outright, so the floor
    # only needs to catch "recovers, but pathologically slowly".
    "faults": 0.05,
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
#: creeping back in reads 12 / 12 / 31.  The sender's tree-PRG calls are
#: ``mpcot_prg_calls(19 086, 7, 4, "chacha8")`` = 6 377 when each tree
#: expands only the nodes above its 2 727 kept leaves; full 4 096-leaf
#: trees read 9 555.  One share: the column-at-a-time
#: LPN gather-XOR is ~0.06 of the lane; a gather of all d rows walked by
#: a strided ``reduce`` (what it replaced) reads >= 0.4.  An untraced
#: smoke run has no such rows at all.
_PER_LEVEL = "is SPCOT exchanging per GGM level again"
LEDGER_ROWS = {
    "rounds_per_extend": (1, 1, _PER_LEVEL),
    "ot_from_cot.calls.snd": (1, 1, _PER_LEVEL),
    "channel.msgs.snd": (1, 3, _PER_LEVEL),
    "prg.calls.snd": (
        6377, 6377, "is SPCOT expanding the surplus leaves of each GGM tree again",
    ),
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


#: Ceilings on exact per-request counts of that run (host independent).
#: Every ring value crosses the wire at the ledger's 16-bit ring width,
#: 2 bytes a lane (``repro.ot.channel.lanes_bytes``): a request's online
#: phase is ~10 430 B and its production traffic ~231 200 B, where the
#: 8-byte ring frames this codec replaced read 24 250 B and 894 600 B
#: (the Gilboa payloads of the matrix triples were 886 880 of those).
#: With every comparison one digit-OT exchange (4-bit digits, one reply
#: of 16 two-bit lanes per digit) plus a log-depth AND tree over the
#: digits, and exact truncation's B2A a Gilboa exchange, the link
#: carries ~51 mux frames (online and production).  Bit triples are
#: hashed from COTs both parties hold, so ``produce.TRI`` sends no
#: frames; with one OT exchange per direction per triple batch (11
#: batches a request) the link read 118.6 frames, over the frames
#: ceiling.  A Beaver B2A on ring triples opens 2 x (2 x 192) x 2 =
#: 1 536 B where the Gilboa one sends lanes_bytes(192, 1) + 192 x 2 =
#: 416 B.  The bit-serial scan with 1-bit OT messages in two 16-byte
#: blocks read 145 557 B and 395.3 frames.
LEDGER_INFER_CEILINGS = {
    "online_bytes_per_req": 12_000,
    "mux.prov_bytes_per_req": 260_000,
    "mux.frames_per_req": 80,
}


def load_ledger(path: Path) -> dict:
    if not path.exists():
        raise SystemExit(
            f"regression gate: missing {path} (did the ledger smoke step run "
            "with --out?)"
        )
    return json.loads(path.read_text())


def check_ledger_infer(path: Path) -> list:
    """Every online-op row of the traced infer_single run is non-zero,
    and the online phase's bytes and frames per request stay under
    ceilings."""
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
    for name, ceiling in LEDGER_INFER_CEILINGS.items():
        value = rows.get(name)
        ok = value is not None and value <= ceiling
        print(f"  ledger/{name:21s} {value}   ceiling  {ceiling}   {'ok' if ok else 'OVER'}")
        if not ok:
            failures.append(
                f"ledger infer_single: {name} = {value}, expected <= {ceiling} -- "
                "do ring values cross the wire wider than their ring again "
                "(repro.ot.channel.send_lanes at 64 bits instead of the ring's "
                "width), is repro.mpc.compare back to one leaf per bit, do bit "
                "triples send OT messages again, are ot_send_from_cot / "
                "ot_receive_from_cot called without a payload width (bits=...) "
                "so narrow messages travel as two 16-byte blocks, or is exact "
                "truncation's B2A a Beaver opening again (or was the smoke run "
                "made without --trace 1)?"
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
            "ratio metrics of the legacy runtime benches (faults, obs, "
            "daemon) measured at --smoke scale on a healthy tree; "
            "refreshed via benchmarks/check_regression.py --update"
        ),
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def check(metrics: dict, baseline: dict, factor: float) -> list:
    """Returns failure strings; empty means the gate passes."""
    failures = []
    for name, value in sorted(metrics.items()):
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
