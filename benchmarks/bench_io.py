"""Shared CLI/IO helpers for the standalone benchmark mains.

Every runtime benchmark exposes the same plumbing -- ``--smoke`` for the
CI-sized shape, ``--json-out`` so CI can collect its payload for the
regression gate (``check_regression.py``), and (for the benches that
record timelines) ``--trace-out`` writing a Chrome-trace/Perfetto JSON.
The argument wiring and the writes live here once.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.export import validate_chrome_trace, write_chrome_trace


def add_bench_args(parser, smoke_help: str, trace: bool = False) -> None:
    """The common benchmark flags: ``--smoke``, ``--json-out``, and
    (when ``trace``) ``--trace-out``."""
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        help="also write the (smoke) payload to this path, e.g. for the "
        "CI regression gate",
    )
    if trace:
        parser.add_argument(
            "--trace-out",
            type=Path,
            default=None,
            help="record the run with tracing enabled and write a "
            "Chrome-trace/Perfetto JSON timeline to this path "
            "(open at https://ui.perfetto.dev)",
        )


def write_payload(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def write_trace(path: Path, tracers) -> dict:
    """Merge ``tracers`` into one timeline, validate it, write it to
    ``path``, and return the validation counts."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = write_chrome_trace(path, tracers)
    counts = validate_chrome_trace(doc)
    print(
        f"wrote {path} ({counts['events']} events, {counts['spans']} spans, "
        f"{counts['instants']} instants)"
    )
    return counts
