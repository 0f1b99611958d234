"""Span recording from outside the program, for the traced pass only.

Nothing under ``src/`` is edited.  A :class:`Recorder` gets spans three
ways:

* it wraps a fixed table of public callables *at their import sites*
  (``PATCHES``) plus a few public object methods (``prg.expand`` of the
  bench's own endpoints, ``DEFAULT_CRHF.hash_tweaked``) and restores
  every one of them afterwards;
* :class:`TimedChannel` is a timing proxy around the channels the bench
  itself constructs;
* the program's shipped ``set_tracer`` surface feeds the same per-party
  :class:`repro.obs.trace.Tracer`, so ``produce.<OP>``, ``pool.wait``,
  ``prefill.layer``, ``online.wait`` and ``request.online`` spans land
  on the same lanes.

Spans stay in memory; :func:`build_ledger` folds them into self times
(a span's duration minus what its children on the same thread cover)
grouped by lane and by root span, so a lane's rows plus the root's own
residual equal that lane's traced wall.
"""

from __future__ import annotations

import importlib
import re
import threading
import time
from dataclasses import dataclass, field

from repro.crypto.crhf import DEFAULT_CRHF
from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer
from repro.ot.channel import Channel


def _rows(args) -> int:
    return int(args[2].shape[0])  # (matrix, vec, addend): n output rows


_OT_SITES = ("repro.spcot.protocol", "repro.mpc.triples", "repro.mpc.relu", "repro.mpc.compare")

#: (module whose namespace holds the name, attribute, span name, size-of-work).
PATCHES = (
    ("repro.ferret.protocol", "base_cot_send", "base_ot", lambda a: int(a[1])),
    ("repro.ferret.protocol", "base_cot_receive", "base_ot", lambda a: len(a[1])),
    ("repro.ferret.protocol", "mpcot_send", "mpcot", None),
    ("repro.ferret.protocol", "mpcot_receive", "mpcot", None),
    ("repro.spcot.mpcot", "spcot_send_batch", "spcot", None),
    ("repro.spcot.mpcot", "spcot_receive_batch", "spcot", None),
    *((site, "ot_send_from_cot", "ot_from_cot", None) for site in _OT_SITES),
    *((site, "ot_receive_from_cot", "ot_from_cot", None) for site in _OT_SITES),
    ("repro.ferret.protocol", "encode_blocks", "lpn.encode_blocks", _rows),
    ("repro.ferret.protocol", "encode_bits", "lpn.encode_bits", _rows),
    # lpn_paper calls the kernels through their defining module.
    ("repro.lpn.encode", "encode_blocks", "lpn.encode_blocks", _rows),
    ("repro.lpn.encode", "encode_bits", "lpn.encode_bits", _rows),
    ("repro.runtime.daemon", "matmul_rescale_via_service", "online.linear_rescale", None),
    ("repro.runtime.daemon", "matmul_via_service", "online.linear", None),
    ("repro.runtime.daemon", "relu_via_service", "online.relu", None),
)

_PARTY_IN_THREAD_NAME = re.compile(r"-p([01])(?:\b|_)")


class Recorder:
    """Owns one tracer per party and every wrapper installed for a run."""

    def __init__(self):
        self.enabled = False
        self.tracers = (Tracer(party=0), Tracer(party=1))
        self._by_thread: dict = {}
        self._undo: list = []  # one callable per installed wrapper

    def tracer_here(self):
        """The calling thread's party tracer, from the ``-p<party>`` every
        party thread (the program's and the bench's) carries in its name."""
        ident = threading.get_ident()
        try:
            return self._by_thread[ident]
        except KeyError:
            found = _PARTY_IN_THREAD_NAME.search(threading.current_thread().name)
            tracer = self.tracers[int(found.group(1))] if found else None
            self._by_thread[ident] = tracer
            return tracer

    def wrap(self, fn, name: str, size=None):
        def traced(*args, **kwargs):
            tracer = self.tracer_here() if self.enabled else None
            if tracer is None:
                return fn(*args, **kwargs)
            if size is None:
                tracer.begin(name, "ledger")
            else:
                tracer.begin(name, "ledger", n=size(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(name, "ledger")

        return traced

    def install(self) -> None:
        """Patch every import site in ``PATCHES``.  All modules are
        imported first so no site can bind an already-wrapped name."""
        sites = [(importlib.import_module(mod), attr, name, size) for mod, attr, name, size in PATCHES]
        for module, attr, name, size in sites:
            original = getattr(module, attr)
            self._undo.append(lambda m=module, a=attr, o=original: setattr(m, a, o))
            setattr(module, attr, self.wrap(original, name, size))
        # The shared CRHF instance every OT pad and SPCOT mask goes through.
        self.wrap_method(
            DEFAULT_CRHF, "hash_tweaked", "crhf.hash", lambda a: int(a[0].shape[0])
        )

    def wrap_method(self, obj, attr: str, name: str, size=None) -> None:
        """Shadow a public bound method on one instance."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name, size))
        self._undo.append(lambda: delattr(obj, attr))

    def restore(self) -> None:
        self.enabled = False
        while self._undo:
            self._undo.pop()()

    def ledger(self) -> "Ledger":
        return build_ledger(self.tracers)

    def clear(self) -> None:
        """Drop the events recorded so far (the end of a phase)."""
        for tracer in self.tracers:
            tracer.events = []

    def write_chrome_trace(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(path, list(self.tracers))


class TimedChannel(Channel):
    """Timing proxy around a channel endpoint the bench constructed.

    Shares the inner endpoint's ``stats`` object so the program's own
    byte/round accounting is unchanged.  Totals accumulate always;
    spans are emitted on the calling thread's lane while the recorder
    is enabled, so channel time shows up as a child of whatever
    protocol step was sending or waiting.
    """

    def __init__(self, inner: Channel, recorder: Recorder, party: int, name: str):
        self.inner = inner
        self.stats = inner.stats
        self._recorder = recorder
        self._tracer = recorder.tracers[party]
        self._name = name
        self.send_s = 0.0
        self.recv_wait_s = 0.0
        self.msgs = 0
        self.bytes = 0

    def totals(self) -> dict:
        return {
            "send_s": self.send_s, "recv_wait_s": self.recv_wait_s,
            "msgs": self.msgs, "bytes": self.bytes,
        }

    def send_bytes(self, data: bytes) -> None:
        start = time.perf_counter()
        try:
            self.inner.send_bytes(data)
        finally:
            end = time.perf_counter()
            self.send_s += end - start
            self.msgs += 1
            self.bytes += len(data)
            if self._recorder.enabled:
                self._tracer.complete(f"{self._name}.send", start, end, "ledger")

    def recv_bytes(self, timeout: float = None) -> bytes:
        start = time.perf_counter()
        try:
            return self.inner.recv_bytes(timeout)
        finally:
            end = time.perf_counter()
            self.recv_wait_s += end - start
            if self._recorder.enabled:
                self._tracer.complete(f"{self._name}.recv_wait", start, end, "ledger")

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


@dataclass
class Row:
    self_s: float = 0.0
    total_s: float = 0.0  # children included
    calls: int = 0
    size: int = 0  # summed size-of-work argument (rows, blocks, OTs)

    def add(self, other: "Row") -> None:
        self.self_s += other.self_s
        self.total_s += other.total_s
        self.calls += other.calls
        self.size += other.size


@dataclass
class Root:
    durations: list = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(self.durations)


@dataclass
class Ledger:
    """Self times keyed by (lane, root span, span) and root totals keyed
    by (lane, root span).  A lane is ``p<party>/<thread name>``."""

    rows: dict = field(default_factory=dict)
    roots: dict = field(default_factory=dict)

    def row(self, lane: str, root: str, name: str) -> Row:
        return self.rows.get((lane, root, name), Row())

    def root(self, lane: str, root: str) -> Root:
        return self.roots.get((lane, root), Root())

    def lanes(self) -> list:
        return sorted({lane for lane, _ in self.roots})

    def under(self, lane: str, roots, name: str) -> Row:
        """Sum of one span's rows under several roots of a lane."""
        out = Row()
        for root in roots:
            out.add(self.row(lane, root, name))
        return out

    def everywhere(self, party: int, name: str) -> Row:
        """Sum of one span's rows over every lane and root of a party."""
        out = Row()
        prefix = f"p{party}/"
        for (lane, _, span), row in self.rows.items():
            if span == name and lane.startswith(prefix):
                out.add(row)
        return out


_EXECUTOR_SUFFIX = re.compile(r"_\d+$")  # ThreadPoolExecutor's "_<n>" worker suffix


def _lane_name(party: int, thread_name: str) -> str:
    return f"p{party}/" + _EXECUTOR_SUFFIX.sub("", thread_name)


def build_ledger(tracers) -> Ledger:
    """Fold the tracers' raw events into per-lane self times.

    B/E pairs nest per thread; retroactive ``X`` spans (pool waits,
    channel proxy timings) count as children of the innermost span open
    on their thread.  Spans still open are dropped.
    """
    ledger = Ledger()
    for tracer in tracers:
        stacks: dict = {}
        for ev in tracer.events:
            ph = ev["ph"]
            if ph not in "BEX":
                continue
            tid = ev["tid"]
            stack = stacks.setdefault(tid, [])
            lane = _lane_name(tracer.party, tracer.thread_names.get(tid, str(tid)))
            if ph == "B":
                size = (ev["args"] or {}).get("n", 0) if ev["cat"] == "ledger" else 0
                stack.append([ev["name"], ev["ts"], 0.0, size])
                continue
            if ph == "E":
                if not stack:
                    continue  # its B predates the recording window
                name, start, covered, size = stack.pop()
                duration = ev["ts"] - start
            else:
                name, duration, covered, size = ev["name"], ev["dur"], 0.0, 0
            root = stack[0][0] if stack else name
            row = ledger.rows.setdefault((lane, root, name), Row())
            row.add(Row(max(0.0, duration - covered), duration, 1, size))
            if stack:
                stack[-1][2] += duration
            else:
                ledger.roots.setdefault((lane, name), Root()).durations.append(duration)
    return ledger


def format_ledger(ledger: Ledger, lane: str) -> str:
    """One lane's table: per root span, its rows by self time and the
    root's own residual; rows + residual == the root's traced wall."""
    lines = []
    mine = [(root, top.total_s, len(top.durations))
            for (ln, root), top in ledger.roots.items() if ln == lane]
    for root, total, count in sorted(mine, key=lambda item: -item[1]):
        if total <= 0:
            continue
        lines.append(f"  {root}: {total * 1e3:.1f} ms over {count} spans")
        rows = [
            (name, row) for (l2, r2, name), row in ledger.rows.items()
            if l2 == lane and r2 == root and name != root
        ]
        for name, row in sorted(rows, key=lambda kv: -kv[1].self_s):
            lines.append(
                f"    {name:<24} {row.self_s * 1e3:10.1f} ms "
                f"{row.self_s / total:6.1%}  x{row.calls}"
            )
        own = ledger.row(lane, root, root).self_s
        lines.append(
            f"    {'(residual)':<24} {own * 1e3:10.1f} ms {own / total:6.1%}"
        )
    return f"lane {lane}\n" + "\n".join(lines)
