"""Persistent serving daemon: cross-request pipelining under load.

A one-shot serving script pays a full cold prefill before its first
layer goes online.  The :class:`repro.runtime.daemon.InferenceDaemon`
chains one batch-scaled pipeline per request and starts request r+1's
production the moment request r's production ends -- while r's online
tail is still draining -- so in steady state a request's first layer is
(mostly) produced before its online phase even starts.  This benchmark
drives a daemon pair with closed-loop clients (think time between
requests) and reports:

* ``first_request_wait_s``: the cold reference -- request 0 blocks for
  its entire layer-0 production, exactly like a one-shot script;
* ``steady_wait_s``: median first-layer wait once the admission window
  is warm (requests after the client ramp);
* ``cross_request_speedup``: the ratio -- the headline number the CI
  regression gate watches (a scheduler that stopped overlapping
  collapses it toward 1x);
* zero planned-pool stalls (the PR-5 pipelining contract, preserved
  across chained requests) and bit-exact outputs for every request;
* a batched request (B items through one pipeline, draws == plan x B);
* a disconnect-heal phase: a real socket pair drops mid-request, the
  reconnect stack replays the daemon's lease table in the resume
  handshake, and the client re-attaches by token -- bit-exact.

Headline numbers land in ``BENCH_daemon.json`` at the repo root.

Run standalone:     PYTHONPATH=src python benchmarks/bench_daemon.py
Smoke (CI):         PYTHONPATH=src python benchmarks/bench_daemon.py --smoke
Timeline:           ... --trace-out daemon.trace.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from bench_io import add_bench_args, write_payload, write_trace

from repro.ferret.config import FerretConfig
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.obs.trace import Tracer
from repro.ot.channel import LocalChannel, SocketChannel, run_concurrently
from repro.ot.faults import DISCONNECT, FaultEvent, FaultSchedule, FaultyChannel
from repro.ot.reconnect import ReconnectingChannel
from repro.ot.retry import RetryPolicy
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.runtime import (
    CorrelationService,
    DaemonConfig,
    InferenceDaemon,
    MuxChannel,
    ServiceTuning,
)
from repro.utils.tables import print_table

RING_BITS = 16
MASK = ring_mask_u64(RING_BITS)
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
JSON_PATH = Path(__file__).resolve().parents[1] / "BENCH_daemon.json"
TIMEOUT = 600.0


def shapes(smoke: bool) -> dict:
    if smoke:
        return {
            "scale": 1024, "dims": (2, 8, 8, 4),
            "clients": 3, "rounds": 4, "think_s": 0.002, "batch": 3,
        }
    return {
        "scale": 4096, "dims": (4, 24, 24, 12),
        "clients": 4, "rounds": 8, "think_s": 0.005, "batch": 4,
    }


def build_graph(dims):
    m, k, h, out = dims
    g = Graph("daemon-mlp", (m, k))
    g.add(Linear(h))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(out))
    return g


def make_model(dims, rng):
    m, k, h, out = dims
    w1 = rng.integers(-4, 4, (k, h))
    w2 = rng.integers(-4, 4, (h, out))
    w1s = share_arith_nd(from_signed(w1, RING_BITS), rng, bits=RING_BITS)
    w2s = share_arith_nd(from_signed(w2, RING_BITS), rng, bits=RING_BITS)

    def oracle(x):
        hid = np.maximum((x @ w1) >> FX.frac_bits, 0)
        return ((hid @ w2).astype(np.int64) & int(MASK)).astype(np.uint64)

    return w1s, w2s, oracle


def share_input(x, rng):
    return share_arith_nd(from_signed(x, RING_BITS), rng, bits=RING_BITS)


def make_tuning() -> ServiceTuning:
    # Every derived correlation in the run is plan-driven, so the
    # cold/steady contrast (and the zero-stall contract) measures the
    # daemon's scheduling, nothing else.
    return ServiceTuning(
        ring_bits=RING_BITS,
        triple_chunk=512,
        take_timeout_s=TIMEOUT,
    )


def start_pair(cfg, dims, dcfg, seed, tracers=None):
    base0, base1 = LocalChannel.pair(timeout=TIMEOUT)
    mux0 = MuxChannel(base0, timeout=TIMEOUT)
    mux1 = MuxChannel(base1, timeout=TIMEOUT)
    svc0 = CorrelationService(0, mux0, cfg, make_tuning(), seed=seed).start()
    svc1 = CorrelationService(1, mux1, cfg, make_tuning(), seed=seed).start()
    if tracers is not None:
        svc0.set_tracer(tracers[0])
        svc1.set_tracer(tracers[1])
    rng = np.random.default_rng(seed)
    g = build_graph(dims)
    w1s, w2s, oracle = make_model(dims, rng)
    d0 = InferenceDaemon(svc0, g, [w1s[0], w2s[0]], fx=FX, cfg=dcfg).start()
    d1 = InferenceDaemon(svc1, g, [w1s[1], w2s[1]], fx=FX, cfg=dcfg).start()
    return d0, d1, svc0, svc1, mux0, mux1, oracle, rng


def run_serving(smoke: bool, tracers=None) -> dict:
    """Closed-loop clients over one daemon pair."""
    shape = shapes(smoke)
    dims, clients, rounds = shape["dims"], shape["clients"], shape["rounds"]
    cfg = FerretConfig.small(scale=shape["scale"], arity=4, prg_kind="chacha8")
    dcfg = DaemonConfig(
        max_inflight=clients + 1, session_inflight=2,
        lease_ttl_s=60.0, max_batch=max(shape["batch"], 2),
        request_timeout_s=TIMEOUT,
    )
    d0, d1, svc0, svc1, mux0, mux1, oracle, rng = start_pair(
        cfg, dims, dcfg, seed=0xDAE, tracers=tracers
    )
    m, k = dims[0], dims[1]
    xs = {
        (c, r): rng.integers(-8, 8, (m, k))
        for c in range(clients) for r in range(rounds)
    }
    shares = {key: share_input(x, rng) for key, x in xs.items()}
    stall_before = {
        kind: s["stalled_draws"] for kind, s in svc0.pool_stats().items()
    }
    outs = {0: {}, 1: {}}
    reqs0 = {}

    def run_clients(d, i):
        errors = []

        def client(c):
            try:
                for r in range(rounds):
                    req = d.submit(f"cli{c}", shares[(c, r)][i])
                    outs[i][(c, r)] = req.result(TIMEOUT)[0]
                    if i == 0:
                        reqs0[(c, r)] = req
                    time.sleep(shape["think_s"])
            except BaseException as exc:  # noqa: BLE001 - joined below
                errors.append((c, exc))

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
        assert not errors, f"party {i} clients failed: {errors}"
        assert not any(t.is_alive() for t in threads), f"party {i} hung"

    t0 = time.perf_counter()
    run_concurrently(
        lambda: run_clients(d0, 0), lambda: run_clients(d1, 1), TIMEOUT
    )
    wall_s = time.perf_counter() - t0

    for key, x in xs.items():
        got = (outs[0][key] + outs[1][key]) & MASK
        assert np.array_equal(got, oracle(x)), f"request {key} not bit-exact"

    # Zero planned-pool stalls: the per-request wait_layer gates must
    # keep absorbing all production latency across chained pipelines.
    stalls = {}
    after = {kind: s["stalled_draws"] for kind, s in svc0.pool_stats().items()}
    for kind in d0.plan.pool_targets():
        stalls[kind] = after[kind] - stall_before.get(kind, 0)
    assert not any(stalls.values()), f"planned pools stalled: {stalls}"

    by_seq = sorted(reqs0.values(), key=lambda r: r.seq)
    waits = [r.first_wait_s for r in by_seq]
    first_wait = waits[0]
    steady = waits[clients:] or waits[1:]
    steady_wait = statistics.median(steady)
    total = clients * rounds

    # Batched phase: one request, B inputs through one pipeline.
    batch = shape["batch"]
    xb = [rng.integers(-8, 8, (m, k)) for _ in range(batch)]
    shb = [share_input(x, rng) for x in xb]
    draws_before = svc0.session_draw_counts()
    tb = time.perf_counter()
    rb0, rb1 = run_concurrently(
        lambda: d0.submit("batch", [s[0] for s in shb]).result(TIMEOUT),
        lambda: d1.submit("batch", [s[1] for s in shb]).result(TIMEOUT),
        TIMEOUT,
    )
    batch_s = time.perf_counter() - tb
    for j, x in enumerate(xb):
        got = (rb0[j] + rb1[j]) & MASK
        assert np.array_equal(got, oracle(x)), f"batch item {j} not bit-exact"
    draws_after = svc0.session_draw_counts()
    for kind, count in d0.plan.pool_targets().items():
        drawn = draws_after.get(kind, 0) - draws_before.get(kind, 0)
        assert drawn == count * batch, (kind, drawn, count, batch)

    tel = {k: v for k, v in svc0.telemetry().items() if k.startswith("daemon/")}
    run_concurrently(lambda: d0.stop(TIMEOUT), lambda: d1.stop(TIMEOUT), TIMEOUT)
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()
    return {
        "lpn_n": cfg.params.n,
        "dims": list(dims),
        "clients": clients,
        "rounds_per_client": rounds,
        "think_s": shape["think_s"],
        "requests": total,
        "wall_s": wall_s,
        "throughput_rps": total / wall_s,
        "first_request_wait_s": first_wait,
        "steady_wait_s": steady_wait,
        "first_wait_by_seq_s": waits,
        "cross_request_speedup": first_wait / max(steady_wait, 1e-6),
        "planned_pool_stalls": stalls,
        "batch": {
            "items": batch,
            "wall_s": batch_s,
            "items_per_s": batch / batch_s,
            "draws_scale_exact": True,
        },
        "telemetry": tel,
    }


def run_reconnect(smoke: bool) -> dict:
    """Socket pair, one mid-request disconnect, lease re-attach."""
    shape = shapes(True if smoke else smoke)  # always the small shape
    dims = shape["dims"]
    cfg = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
    listener = SocketChannel.listen()
    port = listener.port
    schedules = {"server": FaultSchedule(()), "client": FaultSchedule(())}
    channels = {"server": [], "client": []}

    def dialer(name, make):
        def dial():
            chan = FaultyChannel(make(), schedules[name])
            channels[name].append(chan)
            return chan

        return dial

    dial_server = dialer(
        "server", lambda: listener.accept(accept_timeout=60.0, keep_open=True)
    )
    dial_client = dialer(
        "client", lambda: SocketChannel.connect("127.0.0.1", port, timeout=10.0)
    )
    policy = RetryPolicy(
        attempts=10, backoff_s=0.02, backoff_factor=2.0,
        max_backoff_s=0.25, deadline_s=60.0,
    )
    rcs = {}

    def build(name, dial):
        rcs[name] = ReconnectingChannel(dial, policy=policy)

    threads = [
        threading.Thread(target=build, args=("server", dial_server)),
        threading.Thread(target=build, args=("client", dial_client)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    rc0, rc1 = rcs["server"], rcs["client"]
    mux0 = MuxChannel(rc0, timeout=TIMEOUT)
    mux1 = MuxChannel(rc1, timeout=TIMEOUT)
    svc0 = CorrelationService(0, mux0, cfg, make_tuning(), seed=0xDAF).start()
    svc1 = CorrelationService(1, mux1, cfg, make_tuning(), seed=0xDAF).start()
    rng = np.random.default_rng(0xDAF)
    g = build_graph(dims)
    w1s, w2s, oracle = make_model(dims, rng)
    dcfg = DaemonConfig(lease_ttl_s=10.0, request_timeout_s=TIMEOUT)
    d0 = InferenceDaemon(svc0, g, [w1s[0], w2s[0]], fx=FX, cfg=dcfg).start()
    d1 = InferenceDaemon(svc1, g, [w1s[1], w2s[1]], fx=FX, cfg=dcfg).start()
    rc0.state_provider = d0.resume_state
    rc1.state_provider = d1.resume_state
    svc0.wait_ready(TIMEOUT)
    svc1.wait_ready(TIMEOUT)

    chaos = FaultSchedule((FaultEvent("send", 3, DISCONNECT),))
    schedules["server"] = chaos
    for chan in channels["server"]:
        chan.schedule = chaos

    x = rng.integers(-8, 8, (dims[0], dims[1]))
    sh = share_input(x, rng)

    def party(d, i):
        req = d.submit("cli", sh[i])
        token = req.lease.token
        req.done.wait(TIMEOUT)
        return d.attach("cli", token).result(TIMEOUT)

    t0 = time.perf_counter()
    r0, r1 = run_concurrently(lambda: party(d0, 0), lambda: party(d1, 1), TIMEOUT)
    heal_s = time.perf_counter() - t0
    exact = bool(np.array_equal((r0[0] + r1[0]) & MASK, oracle(x)))
    assert exact, "healed request not bit-exact"
    assert chaos.injected, "scheduled disconnect was not injected"
    out = {
        "disconnects_injected": len(chaos.injected),
        "reconnects": rc0.reconnects + rc1.reconnects,
        "attaches": d0.attaches + d1.attaches,
        "request_wall_s": heal_s,
        "bit_exact": exact,
    }
    run_concurrently(lambda: d0.stop(TIMEOUT), lambda: d1.stop(TIMEOUT), TIMEOUT)
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()
    listener.close()
    return out


def report(serving: dict, reconnect: dict) -> None:
    print()
    print_table(
        ["requests", "wall (s)", "req/s", "cold wait (s)", "steady wait (s)",
         "speedup", "batch items/s"],
        [[
            str(serving["requests"]),
            f"{serving['wall_s']:.2f}",
            f"{serving['throughput_rps']:.1f}",
            f"{serving['first_request_wait_s']:.4f}",
            f"{serving['steady_wait_s']:.4f}",
            f"{serving['cross_request_speedup']:.2f}x",
            f"{serving['batch']['items_per_s']:.1f}",
        ]],
        title=f"Serving daemon, closed-loop clients ({os.cpu_count()} CPUs)",
    )
    print(
        f"disconnect heal: {reconnect['reconnects']} reconnect(s), "
        f"{reconnect['attaches']} lease re-attach(es), bit-exact="
        f"{reconnect['bit_exact']}, request wall {reconnect['request_wall_s']:.2f}s"
    )


def payload(serving: dict, reconnect: dict) -> dict:
    return {
        "bench": "daemon",
        "config": {
            "lpn_n": serving["lpn_n"],
            "dims": serving["dims"],
            "clients": serving["clients"],
            "rounds_per_client": serving["rounds_per_client"],
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "cross_request_speedup": serving["cross_request_speedup"],
        "serving": serving,
        "reconnect": reconnect,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_bench_args(
        parser,
        smoke_help="tiny run (small model, 3 clients x 4 requests) that "
        "does not touch the committed JSON",
        trace=True,
    )
    args = parser.parse_args(argv)
    tracers = None
    if args.trace_out is not None:
        tracers = (Tracer(party=0), Tracer(party=1))
    serving = run_serving(args.smoke, tracers=tracers)
    reconnect = run_reconnect(args.smoke)
    report(serving, reconnect)
    doc = payload(serving, reconnect)
    if args.trace_out is not None:
        write_trace(args.trace_out, tracers)
    if args.json_out is not None:
        write_payload(args.json_out, doc)
    if not args.smoke:
        JSON_PATH.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {JSON_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
