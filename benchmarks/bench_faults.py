"""Chaos harness: the pipelined quantized MLP under injected faults.

The fault-tolerance stack (``FaultyChannel`` -> ``ReconnectingChannel``
-> ``MuxChannel`` -> ``CorrelationService``) promises that transport
faults inside the retry budget are *invisible* to the protocol: same
bits, same pool draws, bounded extra latency.  This benchmark proves it
end to end.  Both scenarios run the same pipelined quantized 3-block
MLP (matmul+rescale -> ReLU, twice, then a final matmul) over real
sockets with the full reconnect stack; the only difference is the fault
schedule armed at prefill start:

* **clean** -- an empty schedule (it still counts operations: the
  chaos window is derived from those counts, :func:`chaos_window`);
* **chaos** -- a seeded :meth:`FaultSchedule.chaos` on each side: at
  least one mid-prefill disconnect, one truncated frame (mid-frame EOF
  at the peer's framing layer), receive-timeout bursts, and delays.

Both runs must produce the bit-exact online result and draw exactly
the planned pool quantities; the chaos run must additionally heal
without ever degrading the service (transparent recovery) and consume
every scheduled fault.  Recovery telemetry -- redials, outage
latencies, replayed journal frames -- comes straight from the
reconnect layer's counters.

Headline: **recovery efficiency** = clean e2e / chaos e2e.  A healthy
stack stays near 1.0 (faults cost redial handshakes, not restarts); a
broken resume path collapses it (or hangs the run outright).  Results
go to ``BENCH_faults.json`` at the repo root.

Run standalone:     PYTHONPATH=src python benchmarks/bench_faults.py
Smoke (CI):         PYTHONPATH=src python benchmarks/bench_faults.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np
from bench_io import add_bench_args, write_payload, write_trace

from repro.ferret.config import FerretConfig
from repro.lpn.params import LpnParams
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import SocketChannel, run_concurrently
from repro.ot.faults import FaultSchedule, FaultStats, FaultyChannel
from repro.ot.reconnect import ReconnectingChannel
from repro.ot.retry import RetryPolicy
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning, compile_ops, run_online

PARAMS = LpnParams("bench-pipe", 1 << 14, 512, 512, 32, 0.0)
RING_BITS = 16
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
#: The benchmarked MLP: (M x K) @ (K x H1) -> trunc -> ReLU
#:                        @ (H1 x H2) -> trunc -> ReLU -> @ (H2 x OUT).
SHAPE = (8, 32, 32, 48, 16)
#: The CI-sized MLP: still big enough that derived production (not the
#: first extend) dominates the prefill the faults are injected into.
SMOKE_SHAPE = (4, 16, 16, 24, 8)
MASK = ring_mask_u64(RING_BITS)
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_faults.json"
CHAOS_SEED = 0xFA17
#: Redial budget per outage: generous attempts, fast capped backoff --
#: an injected fault should cost milliseconds, not a paper-scale stall.
POLICY = RetryPolicy(
    attempts=10, backoff_s=0.02, backoff_factor=2.0, max_backoff_s=0.5,
    deadline_s=60.0,
)


def build_model(shape) -> Graph:
    m, k, h1, h2, out = shape
    g = Graph("PipeMLP", (m, k))
    g.add(Linear(h1))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(h2))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(out))
    return g


def make_shares(shape, rng):
    m, k, h1, h2, out = shape
    x = rng.integers(-8, 8, (m, k))
    w1 = rng.integers(-3, 3, (k, h1))
    w2 = rng.integers(-3, 3, (h1, h2))
    w3 = rng.integers(-3, 3, (h2, out))
    shares = {
        key: share_arith_nd(from_signed(mat, RING_BITS), rng, bits=RING_BITS)
        for key, mat in (("x", x), ("w1", w1), ("w2", w2), ("w3", w3))
    }
    h = np.maximum((x @ w1) >> FX.frac_bits, 0)
    h = np.maximum((h @ w2) >> FX.frac_bits, 0)
    expect = ((h @ w3).astype(np.int64) & int(MASK)).astype(np.uint64)
    return shares, expect


def online_fn(svc, party, plan, shares, pipe=None):
    """One party's online phase; gated on the pipeline when given one."""
    weights = [shares[key][party] for key in ("w1", "w2", "w3")]
    return lambda: run_online(
        plan, svc.session("pipe-mlp"), weights, [shares["x"][party]],
        np.random.default_rng(90 + party),
        pipe.wait_layer if pipe is not None else None,
    )[0]


def first_gate(plan) -> int:
    """Plan-layer index the first online op waits for (linear + rescale)."""
    return compile_ops(plan.graph)[0][1]


class FaultySide:
    """One endpoint's dial factory: wraps every fresh transport in a
    :class:`FaultyChannel` sharing the side's current schedule, so op
    counters span the endpoint's whole lifetime across redials.  The
    benign startup schedule is swapped for the chaos one (on the live
    transport too) by :meth:`arm` -- faults are counted from prefill
    start, not from service bring-up."""

    def __init__(self, make_transport):
        self._make_transport = make_transport
        self.schedule = FaultSchedule(())
        self.channels: list = []

    def dial(self):
        chan = FaultyChannel(self._make_transport(), self.schedule)
        self.channels.append(chan)
        return chan

    def arm(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        for chan in self.channels:
            chan.schedule = schedule

    def injected(self) -> dict:
        total = FaultStats()
        for chan in self.channels:
            for key, val in chan.fault_stats.as_dict().items():
                setattr(total, key, getattr(total, key) + val)
        return total.as_dict()


def build_reconnecting_pair(dial_server, dial_client):
    """The resume handshake is symmetric send-then-recv: both
    constructors must run concurrently."""
    out, errs = {}, {}

    def build(name, dial):
        try:
            out[name] = ReconnectingChannel(dial, policy=POLICY)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errs[name] = exc

    threads = [
        threading.Thread(target=build, args=("server", dial_server)),
        threading.Thread(target=build, args=("client", dial_client)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    if errs:
        raise RuntimeError(f"initial dial failed: {errs}")
    return out["server"], out["client"]


def start_stack():
    """The full deployment shape over real sockets: the client redials
    connect(), the server re-accepts on a listener kept open across
    epochs, and each service's resume state rides the handshake."""
    tuning = ServiceTuning(
        ring_bits=RING_BITS,
        triple_chunk=1024,
        take_timeout_s=600.0,
    )
    cfg = FerretConfig(params=PARAMS, arity=4, prg_kind="chacha8")
    listener = SocketChannel.listen()
    port = listener.port
    server = FaultySide(
        lambda: listener.accept(accept_timeout=60.0, keep_open=True)
    )
    client = FaultySide(
        lambda: SocketChannel.connect("127.0.0.1", port, timeout=10.0)
    )
    rc0, rc1 = build_reconnecting_pair(server.dial, client.dial)
    mux0 = MuxChannel(rc0, timeout=600.0)
    mux1 = MuxChannel(rc1, timeout=600.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=0xF1F).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=0xF1F).start()
    rc0.state_provider = svc0.resume_state
    rc1.state_provider = svc1.resume_state
    svc0.wait_ready(600.0)
    svc1.wait_ready(600.0)
    return svc0, svc1, mux0, mux1, rc0, rc1, server, client, listener


def chaos_window(armed_ops: dict) -> tuple:
    """The op-index range (relative to arming, i.e. prefill start) the
    faults land in: the second quarter of the fewest sends or receives
    either side counted in the clean run.  Every op class a schedule
    strikes sees at least that many ops (faults only add redials and
    replays), so every scheduled event fires, and the disconnects land
    in the first half of the run, while production still streams."""
    fewest = min(n for ops in armed_ops.values() for n in ops.values())
    return fewest // 4, fewest // 2


def chaos_schedules(window):
    """Server side gets the full menagerie (the required disconnect and
    truncated frame included); the client side contributes its own
    timeout burst and delays so both directions exercise recovery."""
    server = FaultSchedule.chaos(CHAOS_SEED, window=window)
    client = FaultSchedule.chaos(
        CHAOS_SEED + 1, disconnects=0, truncates=0,
        timeout_bursts=1, delays=2, window=window,
    )
    return server, client


def run_scenario(shape, window=None, tracers=None) -> dict:
    """One run: clean with ``window`` None, else chaos in that window."""
    chaos = window is not None
    svc0, svc1, mux0, mux1, rc0, rc1, server, client, listener = start_stack()
    try:
        if tracers is not None:
            # One call per party wires the service, its pools, the mux,
            # and the reconnect layer underneath (redials/resync show up
            # on the same timeline as prefill/online spans).
            svc0.set_tracer(tracers[0])
            svc1.set_tracer(tracers[1])
        plan = plan_graph(build_model(shape), bits=RING_BITS, fx=FX)
        shares, expect = make_shares(shape, np.random.default_rng(0xBA))
        draws_before = svc0.session_draw_counts()

        if chaos:
            sched_server, sched_client = chaos_schedules(window)
        else:
            # Empty schedules still count ops: chaos_window derives the
            # chaos run's fault window from them.
            sched_server, sched_client = FaultSchedule(()), FaultSchedule(())
        server.arm(sched_server)
        client.arm(sched_client)

        t0 = time.perf_counter()
        pipes = [plan.prefill_pipelined(svc, timeout=600.0) for svc in (svc0, svc1)]
        # Each pipeline produces on a thread of its own while the
        # online phase below runs against it.
        producers = [
            threading.Thread(target=pipe.run, name=f"pipelined-prefill-p{p}", daemon=True)
            for p, pipe in enumerate(pipes)
        ]
        for producer in producers:
            producer.start()
        z0, z1 = run_concurrently(
            online_fn(svc0, 0, plan, shares, pipes[0]),
            online_fn(svc1, 1, plan, shares, pipes[1]),
            timeout=600.0,
        )
        e2e_s = time.perf_counter() - t0
        for producer, pipe in zip(producers, pipes):
            producer.join()
            if pipe.error is not None:
                raise pipe.error
        ttfo_s = pipes[0].ready_elapsed(first_gate(plan))

        # Bit-exactness and plan exactness survive the fault schedule.
        assert np.array_equal((z0 + z1) & MASK, expect), (
            "online inference wrong" + (" under faults" if chaos else "")
        )
        for kind, count in plan.pool_targets().items():
            drawn = svc0.session_draw_counts().get(kind, 0) - draws_before.get(kind, 0)
            assert drawn == count, (
                f"plan mismatch for {kind}: drew {drawn}, planned {count}"
            )

        stats0, stats1 = svc0.retry_stats(), svc1.retry_stats()
        # Transparent recovery: the reconnect layer healed every fault
        # below the service, so neither party ever degraded.
        assert stats0["degraded_events"] == 0, stats0
        assert stats1["degraded_events"] == 0, stats1
        if chaos:
            assert sched_server.remaining() == 0, (
                f"{sched_server.remaining()} server faults never fired; "
                f"ops={sched_server.counts}, window {window}"
            )
            assert sched_client.remaining() == 0, (
                f"{sched_client.remaining()} client faults never fired; "
                f"ops={sched_client.counts}, window {window}"
            )
            assert rc0.reconnects + rc1.reconnects >= 1, "no redial happened"

        events = list(rc0.reconnect_events) + list(rc1.reconnect_events)
        row = {
            "mode": "chaos" if chaos else "clean",
            "window": list(window) if chaos else None,
            "e2e_s": e2e_s,
            "ttfo_s": ttfo_s,
            "reconnects": rc0.reconnects + rc1.reconnects,
            "epochs": {"server": rc0.epoch, "client": rc1.epoch},
            "outage_s_total": sum(ev["outage_s"] for ev in events),
            "reconnect_events": events,
            "replayed_frames": rc0.replayed_frames + rc1.replayed_frames,
            "replayed_bytes": rc0.replayed_bytes + rc1.replayed_bytes,
            "injected": {
                "server": server.injected(),
                "client": client.injected(),
            },
            "armed_ops": {
                "server": dict(sched_server.counts),
                "client": dict(sched_client.counts),
            },
            "retry_stats": {"party0": stats0, "party1": stats1},
        }
    finally:
        svc0.stop(), svc1.stop()
        mux0.close(), mux1.close()
        rc0.close(), rc1.close()
        listener.close()
    return row


def run_all(shape, tracers=None) -> list:
    # The chaos run is the one worth a timeline: redials, replay, and
    # resync barriers interleaved with the prefill/online spans.
    clean = run_scenario(shape)
    window = chaos_window(clean["armed_ops"])
    return [clean, run_scenario(shape, window, tracers=tracers)]


def report(rows, shape) -> None:
    from repro.utils.tables import print_table

    print()
    print_table(
        ["mode", "e2e (s)", "redials", "outage (s)", "replayed frames", "injected"],
        [
            [
                r["mode"],
                f"{r['e2e_s']:.2f}",
                str(r["reconnects"]),
                f"{r['outage_s_total']:.3f}",
                str(r["replayed_frames"]),
                ", ".join(
                    f"{k}={v}"
                    for k, v in sorted(r["injected"]["server"].items())
                    if v and k != "delayed_s"
                ) or "-",
            ]
            for r in rows
        ],
        title=f"Chaos recovery, pipelined MLP {tuple(shape)}, n={PARAMS.n}",
    )
    clean, chaos = rows
    print(
        f"\nbit-exact under faults; e2e {clean['e2e_s']:.2f}s clean -> "
        f"{chaos['e2e_s']:.2f}s chaos "
        f"(recovery efficiency {clean['e2e_s'] / chaos['e2e_s']:.2f}), "
        f"{chaos['reconnects']} redials healing in "
        f"{chaos['outage_s_total']:.3f}s total"
    )


def check(rows) -> None:
    """Acceptance: faults cost redials, not restarts -- chaos e2e stays
    within 3x of clean and every recovery actually replayed."""
    clean, chaos = rows
    assert chaos["reconnects"] >= 2, (
        f"expected the disconnect AND the truncated frame to each force "
        f"a redial, saw {chaos['reconnects']}"
    )
    assert chaos["replayed_frames"] > 0, "no journal replay despite redials"
    assert chaos["e2e_s"] <= 3.0 * clean["e2e_s"], (
        f"chaos e2e ({chaos['e2e_s']:.2f}s) more than 3x clean "
        f"({clean['e2e_s']:.2f}s): recovery is too slow"
    )


def payload(rows, shape) -> dict:
    clean, chaos = rows
    return {
        "bench": "faults",
        "config": {
            "n": PARAMS.n,
            "k": PARAMS.k,
            "t": PARAMS.t,
            "ring_bits": RING_BITS,
            "mlp_shape": list(shape),
            "chaos_seed": CHAOS_SEED,
            "window": chaos["window"],
            "machine": platform.machine(),
        },
        "scenarios": rows,
        "recovery_efficiency": clean["e2e_s"] / chaos["e2e_s"],
        "recovery_latency_s": chaos["outage_s_total"],
        "replayed_frames": chaos["replayed_frames"],
        "replayed_bytes": chaos["replayed_bytes"],
    }


def write_json(rows, shape, path: Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload(rows, shape), indent=2) + "\n")
    print(f"wrote {path}")


def check_trace(counts, rows) -> None:
    """The timeline must make the chaos run legible: every redial, the
    resync barrier riding the resume handshake, and the per-layer
    prefill/online spans all identifiable by name."""
    names = counts["span_names"]
    chaos = rows[1]
    assert names.get("redial.attempt", 0) >= chaos["reconnects"], (
        f"trace shows {names.get('redial.attempt', 0)} redial attempts "
        f"but the reconnect layer counted {chaos['reconnects']}"
    )
    assert names.get("resync.barrier", 0) >= chaos["reconnects"], (
        f"every recovery replays through a resync barrier; trace has "
        f"{names.get('resync.barrier', 0)} for {chaos['reconnects']} redials"
    )
    for span in ("prefill.layer", "online.layer", "reconnect.recover"):
        assert names.get(span, 0) > 0, f"no {span} spans in the trace"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_args(
        parser,
        smoke_help="tiny MLP; does not touch the committed JSON",
        trace=True,
    )
    args = parser.parse_args(argv)
    shape = SMOKE_SHAPE if args.smoke else SHAPE
    tracers = None
    if args.trace_out is not None:
        from repro.obs import Tracer

        tracers = [Tracer(party=0), Tracer(party=1)]
    rows = run_all(shape, tracers=tracers)
    report(rows, shape)
    check(rows)
    if args.trace_out is not None:
        counts = write_trace(args.trace_out, tracers)
        check_trace(counts, rows)
    if args.json_out is not None:
        write_payload(args.json_out, payload(rows, shape))
    if args.smoke:
        print("smoke OK")
        return 0
    write_json(rows, shape)
    return 0


if __name__ == "__main__":
    sys.exit(main())
