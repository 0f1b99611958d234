"""Stall-attribution report over a recorded Chrome-trace file.

``python -m repro.obs.report trace.json`` answers "where did the online
phase block, and on what?" -- e.g. *online blocked 38 ms on mtri/4x24x24
refill during layer 2*.  It pairs B/E events back into spans, finds the
stall spans (``pool.wait`` from :class:`repro.runtime.pool.CorrelationPool`,
``online.wait`` from pipelined prefill), and attributes each to the
layer span (``online.layer`` / ``prefill.layer``) it overlaps on the
same party lane.  A second table shows the recovery timeline: every
redial attempt, resync barrier, and ``reconnect.recover`` span.
"""

from __future__ import annotations

import argparse
import json

from repro.obs.export import validate_chrome_trace
from repro.utils.tables import print_table

#: Span names treated as "somebody was blocked here".
STALL_SPANS = ("pool.wait", "online.wait", "service.resync")
#: Span names a stall is attributed to.
LAYER_SPANS = ("online.layer", "prefill.layer")
#: Instants shown on the recovery timeline.
RECOVERY_INSTANTS = ("redial.attempt", "resync.barrier", "heartbeat.lost")


def pair_spans(events) -> list:
    """Rebuild spans from sorted B/E events.

    Returns dicts ``{name, cat, pid, tid, start, end, dur, args}`` with
    timestamps in microseconds, ordered by start time.
    """
    stacks: dict = {}
    spans = []
    for ev in events:
        ph = ev.get("ph")
        lane = (ev.get("pid"), ev.get("tid"))
        if ph == "X":
            spans.append(
                {
                    "name": ev["name"],
                    "cat": ev.get("cat", ""),
                    "pid": lane[0],
                    "tid": lane[1],
                    "start": ev["ts"],
                    "end": ev["ts"] + ev.get("dur", 0),
                    "dur": ev.get("dur", 0),
                    "args": ev.get("args") or {},
                }
            )
        elif ph == "B":
            stacks.setdefault(lane, []).append(ev)
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                continue
            b = stack.pop()
            spans.append(
                {
                    "name": b["name"],
                    "cat": b.get("cat", ""),
                    "pid": lane[0],
                    "tid": lane[1],
                    "start": b["ts"],
                    "end": ev["ts"],
                    "dur": ev["ts"] - b["ts"],
                    "args": b.get("args") or {},
                }
            )
    spans.sort(key=lambda s: s["start"])
    return spans


def _layer_label(span) -> str:
    layer = span["args"].get("layer")
    label = span["name"] if layer is None else f"{span['name']} {layer}"
    return label


def _stall_key(span) -> str:
    args = span["args"]
    if span["name"] == "pool.wait":
        return f"{args.get('pool', '?')} ({args.get('what', 'wait')})"
    if span["name"] == "online.wait":
        return f"prefill layer {args.get('layer', '?')}"
    return span["name"]


def attribute(span, layers) -> str:
    """Name the layer span on the same party that ``span`` overlaps most;
    fall back to "before <next layer>" when it sits between layers."""
    best, best_overlap = None, 0.0
    following = None
    for layer in layers:
        if layer["pid"] != span["pid"]:
            continue
        overlap = min(span["end"], layer["end"]) - max(span["start"], layer["start"])
        if overlap > best_overlap:
            best, best_overlap = layer, overlap
        if layer["start"] >= span["end"] and (
            following is None or layer["start"] < following["start"]
        ):
            following = layer
    if best is not None:
        return _layer_label(best)
    if following is not None:
        return f"before {_layer_label(following)}"
    return "(no layer)"


def stall_rows(spans) -> list:
    """Aggregate stall spans into (party, stalled on, during, count,
    total ms, max ms) rows, longest total first."""
    layers = [s for s in spans if s["name"] in LAYER_SPANS]
    agg: dict = {}
    for span in spans:
        if span["name"] not in STALL_SPANS:
            continue
        key = (span["pid"], _stall_key(span), attribute(span, layers))
        entry = agg.setdefault(key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["dur"]
        entry[2] = max(entry[2], span["dur"])
    rows = [
        [pid, on, during, n, f"{total / 1e3:.1f}", f"{mx / 1e3:.1f}"]
        for (pid, on, during), (n, total, mx) in agg.items()
    ]
    rows.sort(key=lambda r: -float(r[4]))
    return rows


def recovery_rows(events, spans) -> list:
    """Timeline rows for redials, resync barriers, and recovery spans."""
    rows = []
    for ev in events:
        if ev.get("ph") == "i" and ev["name"] in RECOVERY_INSTANTS:
            args = ev.get("args") or {}
            detail = ", ".join(f"{k}={v}" for k, v in sorted(args.items()))
            rows.append((ev["ts"], ev["pid"], ev["name"], detail))
    for span in spans:
        if span["name"] == "reconnect.recover":
            args = span["args"]
            detail = ", ".join(f"{k}={v}" for k, v in sorted(args.items()))
            detail = f"{span['dur'] / 1e3:.1f} ms" + (f", {detail}" if detail else "")
            rows.append((span["start"], span["pid"], span["name"], detail))
    rows.sort(key=lambda r: r[0])
    return [[f"{ts / 1e3:.1f}", pid, name, detail] for ts, pid, name, detail in rows]


def render_report(doc) -> None:
    """Print the stall-attribution and recovery tables for a trace doc."""
    counts = validate_chrome_trace(doc)
    events = [ev for ev in doc["traceEvents"] if ev.get("ph") != "M"]
    spans = pair_spans(events)

    rows = stall_rows(spans)
    if rows:
        print_table(
            ["party", "stalled on", "during", "count", "total ms", "max ms"],
            rows,
            title="Stall attribution",
        )
    else:
        print("Stall attribution: no stall spans recorded\n")

    rows = recovery_rows(events, spans)
    if rows:
        print_table(
            ["t ms", "party", "event", "detail"],
            rows,
            title="Recovery timeline",
        )

    layer_rows = [
        [s["pid"], _layer_label(s), f"{s['dur'] / 1e3:.1f}"]
        for s in spans
        if s["name"] in LAYER_SPANS
    ]
    if layer_rows:
        print_table(["party", "layer", "ms"], layer_rows, title="Layer spans")

    print(
        f"{counts['events']} events, {counts['spans']} spans, "
        f"{counts['instants']} instants, {counts['counters']} counter samples"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render stall-attribution tables from a Chrome-trace file",
    )
    parser.add_argument("trace", help="path to a --trace-out JSON file")
    args = parser.parse_args(argv)
    with open(args.trace) as fh:
        doc = json.load(fh)
    render_report(doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
