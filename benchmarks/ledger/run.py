"""The perf ledger: one benchmark, four workloads, rows that add up.

One run (the form the driver uses; measures in this process)::

    python3 benchmarks/ledger/run.py --workload ote_stream --seed 1 \\
        --seconds 10 --trace 0 [--out result.json] [--trace-out trace.json]

Every workload, each in a fresh child process, untraced pass then traced
pass, with the tracing overhead between the two::

    python3 benchmarks/ledger/run.py [--seed S] [--seconds N] [--repeat R] \\
        [--trace 0|1] [--out set.json]

End-to-end numbers come from the untraced pass (``--trace 0``), the
per-layer rows and the ledger tables from the traced one.  The last line
of standard output of one run is a JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    # Only BENCHMARK.json and this directory: there is no program to measure.
    sys.exit(f"ledger: {SRC / 'repro'} not found; run from a full checkout")
sys.path.insert(0, str(SRC))

if hasattr(os, "sched_setaffinity"):
    # One core for the whole run.  Both parties are threads of this process
    # under one GIL; across two cores they convoy on it (an extend pair is
    # 55 or 100 ms depending on how the hand-offs fall, a request 0.6 or
    # 1.2 s), and on a shared host the second core is not reliably there.
    # On one core the wall is the two parties' summed CPU work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import host as hostinfo  # noqa: E402
import registry  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"


def end_to_end(workload, setup_s: float, segment) -> dict:
    # The median window's rate, not ops / wall: see workloads.WINDOWS.
    rate = statistics.median(segment.window_rates())
    return {
        "setup_s": setup_s,
        "cot_ns": 1e9 / (rate * workload.cots_per_op),
        "request_p50_s": statistics.median(segment.latencies),
        "throughput_rps": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, trace_out=None) -> dict:
    """Measure one workload in this process; returns the full result."""
    load1 = hostinfo.load1_checked()
    recorder = spans.Recorder() if trace else None
    workload = workloads.REGISTRY[name](seed, recorder)
    layers = {m.name: 0.0 for m in registry.PER_LAYER}
    tables = []
    try:
        if recorder is not None:
            recorder.install()
            recorder.enabled = True  # setup is traced: it is where PKC shows
        setup_s = workload.setup()
        if recorder is not None:
            recorder.enabled = False
            layers.update(workload.setup_layer_metrics(recorder.ledger()))
            recorder.clear()
        workload.warmup()
        if recorder is None:
            segment = workload.measure(seconds)
        else:
            # The same process first measures untraced, so the overhead of
            # the spans is known without a second run.
            reference = workload.measure(seconds / 3)
            workload.set_tracing(True)
            segment = workload.measure(seconds * 2 / 3)
            workload.set_tracing(False)
            ledger = recorder.ledger()
            layers.update(workload.layer_metrics(ledger, segment))
            layers["trace.overhead_frac"] = (
                (segment.wall_s / segment.ops) / (reference.wall_s / reference.ops) - 1.0
            )
            tables = [spans.format_ledger(ledger, lane) for lane in ledger.lanes()]
            if trace_out is not None:
                recorder.write_chrome_trace(trace_out)
        workload.finish()
    finally:
        workload.close()
        if recorder is not None:
            recorder.restore()
    results = end_to_end(workload, setup_s, segment)
    # Calibrated last: its 64 MiB working set must not set peak_rss_mb.
    host = hostinfo.fingerprint(load1)
    layers["failed_frac"] = workload.failed / workload.attempted
    for key in ("nproc", "xor_gbps", "load1", "numba"):
        layers[f"host.{key}"] = host[key]
    unknown = set(layers) - {m.name for m in registry.PER_LAYER}
    if unknown:
        raise KeyError(f"per-layer rows missing from the registry: {sorted(unknown)}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems,
        "ops": segment.ops,
        "digest": workload.digest,
        "end_to_end": results,
        "per_layer": layers if trace else {},
        "ledger": tables,
        "host": host,
    }


def report(result: dict) -> None:
    """Every metric by name with its unit, the ledger tables, and the
    driver's result object as the last line."""
    units = {m.name: m.unit for m in registry.END_TO_END + registry.PER_LAYER}
    shown = result["per_layer"] if result["trace"] else result["end_to_end"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"ops={result['ops']} digest={result['digest'][:16]}")
    zero = [name for name, value in shown.items() if value == 0]
    for name, value in shown.items():
        if value != 0:
            print(f"{name:<34} {value:>16.6g} {units[name]}")
    if zero:
        print(f"({len(zero)} rows read 0 on this workload; all are in the result object)")
    for table in result["ledger"]:
        print(table)
    for problem in result["problems"]:
        print(f"FAILED GATE: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in shown.items()
        },
    }))


def run_children(seed: int, seconds: float, repeat: int, passes: tuple, out: Path) -> int:
    """Every workload x seed x pass, each in a fresh child process; the
    set file is rewritten after every run so a late failure loses nothing."""
    out.parent.mkdir(parents=True, exist_ok=True)
    runs, crashed = [], 0
    for name in registry.ALL_WORKLOADS:
        for run_seed in range(seed, seed + repeat):
            for trace in passes:
                path = out.with_name(f"{out.stem}.{name}.s{run_seed}.t{trace}.json")
                child = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", name, "--seed", str(run_seed),
                     "--seconds", str(seconds), "--trace", str(trace), "--out", str(path)],
                    timeout=900,
                )
                if child.returncode != 0:
                    crashed += 1
                    print(f"{name} seed={run_seed} trace={trace}: exit {child.returncode}",
                          file=sys.stderr)
                    continue
                runs.append(json.loads(path.read_text()))
                path.unlink()
                out.write_text(json.dumps({"schema": 1, "runs": runs}, indent=1) + "\n")
    print(f"\nwrote {out} ({len(runs)} runs, {crashed} crashed)")
    # Tracing overhead across the two passes: traced / untraced cot_ns - 1.
    for name in registry.ALL_WORKLOADS:
        cost = {
            t: [r["end_to_end"]["cot_ns"] for r in runs if r["workload"] == name and r["trace"] == t]
            for t in (0, 1)
        }
        if cost[0] and cost[1]:
            base, traced = statistics.median(cost[0]), statistics.median(cost[1])
            print(f"{name}: traced pass cot_ns {traced:.1f} / untraced {base:.1f} "
                  f"- 1 = {traced / base - 1:+.1%} tracing overhead")
    return 1 if crashed or any(r["failed"] for r in runs) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(registry.ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=registry.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics and ledger "
                        "(default: 0 for one workload, both passes otherwise)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: seeds per workload (seed, seed+1, ...)")
    parser.add_argument("--out", type=Path, help="write the full result(s) as JSON")
    parser.add_argument("--trace-out", type=Path,
                        help="with --trace 1: write the Chrome trace of the run")
    args = parser.parse_args(argv)
    if args.workload is None:
        passes = (0, 1) if args.trace is None else (args.trace,)
        return run_children(
            args.seed, args.seconds, args.repeat, passes, args.out or OUT_DIR / "ledger.json"
        )
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.trace_out)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
