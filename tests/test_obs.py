"""The flight recorder: metrics registry, tracer, export, report.

Unit coverage for the observability package plus one service-level
integration: collector snapshots, histogram bucket edges, the
null tracer's zero-allocation guarded path, Chrome-trace schema
validity, and stall attribution in the report.
"""

import gc
import json
import sys
import threading

import pytest

from repro.ferret.config import FerretConfig
from repro.obs import (
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.report import pair_spans, render_report, stall_rows
from repro.obs.trace import _NULL_SPAN
from repro.ot.channel import LocalChannel, run_concurrently
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning


class SettableClock:
    """Injected tracer clock the tests drive by hand."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# -- metrics registry ---------------------------------------------------------


def test_histogram_bucket_edges_are_inclusive():
    h = Histogram("stall", bounds=(1.0, 5.0))
    for v in (0.5, 1.0, 1.0001, 5.0, 6.0):
        h.observe(v)
    # v <= bound lands in that bound's bucket: 0.5 and exactly-1.0 in
    # le_1, the 1.0001 and exactly-5.0 in le_5, 6.0 overflows.
    val = h.value
    assert val["count"] == 5
    assert val["sum"] == pytest.approx(13.5001)
    assert val["le_1"] == 2 and val["le_5"] == 2 and val["le_inf"] == 1


def test_histogram_rejects_empty_bounds():
    with pytest.raises(ValueError, match="bucket bound"):
        Histogram("empty", bounds=())


def test_collector_entries_are_prefixed():
    reg = MetricsRegistry()
    reg.add_collector("pool", lambda: {"tri/level": 12, "tri/deficit": 3})
    snap = reg.snapshot()
    assert snap == {"pool/tri/level": 12, "pool/tri/deficit": 3}


# -- tracer -------------------------------------------------------------------


def test_null_tracer_is_disabled_and_shares_one_span():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.span("anything", layer=3) is _NULL_SPAN
    assert NULL_TRACER.span() is NULL_TRACER.span()
    with NULL_TRACER.span("x"):
        pass  # the singleton is a working (no-op) context manager
    NULL_TRACER.instant("i"), NULL_TRACER.counter("c", v=1)
    NULL_TRACER.complete("x", 0.0, 1.0)
    assert NULL_TRACER.now() == 0.0


def test_null_tracer_guarded_hot_path_allocates_nothing():
    """The disabled-by-default contract: ``if tracer.enabled:`` is one
    attribute load and a falsy branch -- no kwargs packing, no event
    objects -- so instrumented hot loops stay allocation-free."""
    tracer = NULL_TRACER

    def hot(n):
        for i in range(n):
            if tracer.enabled:
                with tracer.span("pool.wait", pool="tri", what=i):
                    pass

    hot(100)  # warm any lazy setup
    gc.collect()
    before = sys.getallocatedblocks()
    hot(10_000)
    gc.collect()
    after = sys.getallocatedblocks()
    assert after - before <= 2, f"guarded no-op path allocated {after - before}"


def test_tracer_records_with_injected_clock():
    clock = SettableClock(10.0)
    tr = Tracer(party=1, clock=clock)
    assert tr.enabled is True and tr.now() == 10.0
    with tr.span("online.layer", cat="online", layer=2):
        clock.t = 10.5
        tr.instant("session.alloc", cat="session", n=64)
        clock.t = 11.0
    b, i, e = tr.events
    assert (b["ph"], b["ts"], b["args"]) == ("B", 10.0, {"layer": 2})
    assert (i["ph"], i["ts"], i["args"]) == ("i", 10.5, {"n": 64})
    assert (e["ph"], e["ts"], e["args"]) == ("E", 11.0, None)
    assert set(tr.thread_names) == {threading.get_ident()}


def test_complete_records_x_event_and_clamps():
    tr = Tracer(party=0, clock=SettableClock())
    tr.complete("pool.wait", 1.0, 1.25, cat="stall", pool="tri")
    tr.complete("weird", 5.0, 4.0)  # end < start clamps to zero-length
    x, clamped = tr.events
    assert x["ph"] == "X" and x["ts"] == 1.0 and x["dur"] == 0.25
    assert clamped["ts"] == 4.0 and clamped["dur"] == 0.0


# -- chrome-trace export ------------------------------------------------------


def make_traced_pair():
    """Two parties' tracers with spans, a stall X, and an instant."""
    clock = SettableClock(100.0)
    tr0, tr1 = Tracer(party=0, clock=clock), Tracer(party=1, clock=clock)
    tr0.begin("prefill.layer", cat="prefill", layer=0)
    clock.t = 100.01
    tr0.complete("pool.wait", 100.002, 100.008, cat="stall",
                 pool="tri", what="take [0, 64)")
    tr1.instant("redial.attempt", cat="reconnect", attempt=1)
    clock.t = 100.05
    tr0.end("prefill.layer")
    return tr0, tr1


def test_chrome_trace_schema_and_lanes():
    tr0, tr1 = make_traced_pair()
    doc = chrome_trace([tr0, tr1])
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [ev for ev in events if ev["ph"] == "M"]
    rest = [ev for ev in events if ev["ph"] != "M"]
    # Metadata first: a process_name per party plus thread_name labels.
    assert events[: len(meta)] == meta
    assert {ev["args"]["name"] for ev in meta if ev["name"] == "process_name"} == {
        "party 0", "party 1",
    }
    # Timestamps are microseconds from the global minimum, sorted.
    ts = [ev["ts"] for ev in rest]
    assert ts == sorted(ts) and ts[0] == 0.0
    assert {ev["pid"] for ev in rest} == {0, 1}
    x = next(ev for ev in rest if ev["ph"] == "X")
    assert x["ts"] == pytest.approx(2_000.0) and x["dur"] == pytest.approx(6_000.0)
    instant = next(ev for ev in rest if ev["ph"] == "i")
    assert instant["s"] == "t"
    counts = validate_chrome_trace(doc)
    assert counts["spans"] == 2 and counts["instants"] == 1
    assert counts["span_names"] == {
        "prefill.layer": 1, "pool.wait": 1, "redial.attempt": 1,
    }


def test_write_chrome_trace_round_trips(tmp_path):
    tr0, tr1 = make_traced_pair()
    path = tmp_path / "trace.json"
    write_chrome_trace(path, [tr0, tr1])
    doc = json.loads(path.read_text())
    counts = validate_chrome_trace(doc)
    assert counts["events"] == 4


def test_validate_rejects_malformed_docs():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({"events": []})
    base = {"cat": "t", "pid": 0, "tid": 0, "ts": 0.0}
    with pytest.raises(ValueError, match="unknown phase"):
        validate_chrome_trace({"traceEvents": [{**base, "name": "x", "ph": "Z"}]})
    with pytest.raises(ValueError, match="missing 'tid'"):
        validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "B", "pid": 0, "ts": 0.0}]}
        )
    with pytest.raises(ValueError, match="no open B"):
        validate_chrome_trace({"traceEvents": [{**base, "name": "x", "ph": "E"}]})
    with pytest.raises(ValueError, match="closes B"):
        validate_chrome_trace(
            {
                "traceEvents": [
                    {**base, "name": "a", "ph": "B"},
                    {**base, "name": "b", "ph": "E", "ts": 1.0},
                ]
            }
        )
    with pytest.raises(ValueError, match="unsorted"):
        validate_chrome_trace(
            {
                "traceEvents": [
                    {**base, "name": "x", "ph": "i", "ts": 2.0, "s": "t"},
                    {**base, "name": "y", "ph": "i", "ts": 1.0, "s": "t"},
                ]
            }
        )
    with pytest.raises(ValueError, match="bad dur"):
        validate_chrome_trace(
            {"traceEvents": [{**base, "name": "x", "ph": "X", "dur": -1.0}]}
        )
    with pytest.raises(ValueError, match="unclosed"):
        validate_chrome_trace({"traceEvents": [{**base, "name": "x", "ph": "B"}]})


# -- report -------------------------------------------------------------------


def test_report_attributes_stalls_to_layers(capsys):
    tr0, tr1 = make_traced_pair()
    doc = chrome_trace([tr0, tr1])
    events = [ev for ev in doc["traceEvents"] if ev["ph"] != "M"]
    spans = pair_spans(events)
    assert [s["name"] for s in spans] == ["prefill.layer", "pool.wait"]
    rows = stall_rows(spans)
    # The pool.wait X sits inside prefill.layer 0 on the same party.
    assert rows == [[0, "tri (take [0, 64))", "prefill.layer 0", 1, "6.0", "6.0"]]
    render_report(doc)
    out = capsys.readouterr().out
    assert "Stall attribution" in out and "tri (take [0, 64))" in out
    assert "Recovery timeline" in out and "redial.attempt" in out
    assert "Layer spans" in out


# -- service integration ------------------------------------------------------


def test_service_telemetry_and_set_tracer():
    cfg = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
    tuning = ServiceTuning(triple_chunk=256)
    base0, base1 = LocalChannel.pair(timeout=120.0)
    mux0, mux1 = MuxChannel(base0, timeout=120.0), MuxChannel(base1, timeout=120.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=0x0B5).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=0x0B5).start()
    try:
        svc0.wait_ready(120.0), svc1.wait_ready(120.0)
        tr0, tr1 = Tracer(party=0), Tracer(party=1)
        svc0.set_tracer(tr0), svc1.set_tracer(tr1)
        # One call wires the whole stack for that party.
        assert mux0.tracer is tr0 and mux1.tracer is tr1
        assert all(pool.tracer is tr0 for pool in svc0.pools.values())

        def draw(svc):
            svc.session("obs-test").draw([("cot/fwd", (), 64)])

        run_concurrently(lambda: draw(svc0), lambda: draw(svc1), timeout=120.0)

        telemetry = svc0.telemetry()
        draws = {k: v for k, v in telemetry.items() if k.startswith("draws/")}
        assert sum(draws.values()) >= 64
        assert any(k.startswith("pool/") for k in telemetry)
        assert any(k.startswith("mux/") for k in telemetry)
        assert telemetry["service/degraded"] == 0
        assert isinstance(telemetry["pool/stall_ms"], dict)

        # Quiesce the producers before exporting: a live snapshot can
        # legitimately catch a produce.* span mid-flight.
        svc0.stop(), svc1.stop()
        # Both parties' allocations landed on the timeline, and the
        # merged two-party export is schema-valid.
        counts = validate_chrome_trace(chrome_trace([tr0, tr1]))
        assert counts["span_names"].get("session.alloc", 0) >= 2
    finally:
        svc0.stop(), svc1.stop()
        mux0.close(), mux1.close()
