#!/usr/bin/env python
"""A persistent two-party inference daemon with cross-request pipelining.

``examples/inference_service.py`` serves ONE inference per run: plan,
prefill, online, done.  Operationally the paper's offline/online split
only pays off when the server is a long-lived *daemon*: correlations
produced while one request's online phase drains are what make the NEXT
request's first layer start instantly.  This example runs that shape
end to end on one duplex link:

* both parties wrap their :class:`repro.runtime.CorrelationService` in
  an :class:`repro.runtime.InferenceDaemon` holding the model graph and
  their half of the weight shares;
* three client sessions submit a stream of requests (leader admission
  verdicts ride the ``daemon/ctl`` sub-channel; per-session
  backpressure and a daemon-wide in-flight window bound the load);
* the daemon chains one pipelined prefill per request -- request r+1's
  production starts while request r's online tail is still draining --
  and the printed per-request first-layer waits show the effect:
  request 0 pays the full cold prefill, steady-state requests wait a
  fraction of it;
* one batched request pushes B=3 inputs through a single pipeline
  (every produce target scaled by B, nonlinear layers fused across the
  batch);
* every admitted request holds a **lease**; the example lets one
  result's lease lapse to show the reaper dropping the unclaimed
  output, then re-attaches a live request by token, the way a
  reconnecting client resumes after transport loss;
* every served output is bit-exact against the plaintext fixed-point
  oracle.

Run:  python examples/inference_daemon.py
"""

import threading
import time

import numpy as np

from repro.errors import LeaseExpired
from repro.ferret.config import FerretConfig
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import LocalChannel, run_concurrently
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.runtime import (
    CorrelationService,
    DaemonConfig,
    InferenceDaemon,
    MuxChannel,
    ServiceTuning,
)

RING_BITS = 16
MASK = ring_mask_u64(RING_BITS)
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
M, K, H, OUT = 2, 8, 8, 4
CLIENTS, ROUNDS = 3, 3
TIMEOUT = 300.0


def main() -> None:
    rng = np.random.default_rng(0xDA)
    cfg = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
    tuning = dict(
        ring_bits=RING_BITS,
        triple_chunk=512,
        take_timeout_s=TIMEOUT,
    )
    base0, base1 = LocalChannel.pair(timeout=TIMEOUT)
    mux0 = MuxChannel(base0, timeout=TIMEOUT)
    mux1 = MuxChannel(base1, timeout=TIMEOUT)
    svc0 = CorrelationService(0, mux0, cfg, ServiceTuning(**tuning), seed=0xDA).start()
    svc1 = CorrelationService(1, mux1, cfg, ServiceTuning(**tuning), seed=0xDA).start()

    g = Graph("daemon-mlp", (M, K))
    g.add(Linear(H))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(OUT))

    w1 = rng.integers(-4, 4, (K, H))
    w2 = rng.integers(-4, 4, (H, OUT))
    w1s = share_arith_nd(from_signed(w1, RING_BITS), rng, bits=RING_BITS)
    w2s = share_arith_nd(from_signed(w2, RING_BITS), rng, bits=RING_BITS)

    def oracle(x):
        h = np.maximum((x @ w1) >> FX.frac_bits, 0)
        return ((h @ w2).astype(np.int64) & int(MASK)).astype(np.uint64)

    dcfg = DaemonConfig(
        max_inflight=CLIENTS + 1, session_inflight=2,
        lease_ttl_s=1.0, request_timeout_s=TIMEOUT,
    )
    d0 = InferenceDaemon(svc0, g, [w1s[0], w2s[0]], fx=FX, cfg=dcfg).start()
    d1 = InferenceDaemon(svc1, g, [w1s[1], w2s[1]], fx=FX, cfg=dcfg).start()

    # -- a stream of client requests ------------------------------------
    xs = {
        (c, r): rng.integers(-8, 8, (M, K))
        for c in range(CLIENTS) for r in range(ROUNDS)
    }
    shares = {
        key: share_arith_nd(from_signed(x, RING_BITS), rng, bits=RING_BITS)
        for key, x in xs.items()
    }
    outs = {0: {}, 1: {}}
    reqs0 = {}

    def run_clients(d, i):
        def client(c):
            for r in range(ROUNDS):
                req = d.submit(f"cli{c}", shares[(c, r)][i])
                # A live lease can be re-attached by token -- this is
                # what a reconnecting client does after transport loss.
                assert d.attach(f"cli{c}", req.lease.token) is req
                outs[i][(c, r)] = req.result(TIMEOUT)[0]
                if i == 0:
                    reqs0[(c, r)] = req
                time.sleep(0.002)

        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
        assert not any(t.is_alive() for t in threads), "clients hung"

    run_concurrently(
        lambda: run_clients(d0, 0), lambda: run_clients(d1, 1), TIMEOUT
    )
    for key, x in xs.items():
        got = (outs[0][key] + outs[1][key]) & MASK
        assert np.array_equal(got, oracle(x)), f"request {key} not bit-exact"
    by_seq = sorted(reqs0.values(), key=lambda r: r.seq)
    waits = [r.first_wait_s for r in by_seq]
    print(f"{CLIENTS * ROUNDS} requests served bit-exact")
    print(f"  cold first-layer wait (request 0): {waits[0] * 1000:.1f} ms")
    steady = sorted(waits[CLIENTS:])[len(waits[CLIENTS:]) // 2]
    print(f"  steady-state first-layer wait:     {steady * 1000:.1f} ms")

    # -- one batched request, B inputs through one pipeline -------------
    xb = [rng.integers(-8, 8, (M, K)) for _ in range(3)]
    shb = [
        share_arith_nd(from_signed(x, RING_BITS), rng, bits=RING_BITS)
        for x in xb
    ]
    rb0, rb1 = run_concurrently(
        lambda: d0.submit("batch", [s[0] for s in shb]).result(TIMEOUT),
        lambda: d1.submit("batch", [s[1] for s in shb]).result(TIMEOUT),
        TIMEOUT,
    )
    for j, x in enumerate(xb):
        got = (rb0[j] + rb1[j]) & MASK
        assert np.array_equal(got, oracle(x)), f"batch item {j} not bit-exact"
    print("batched request (B=3) served bit-exact through one pipeline")

    # -- lease expiry: an unclaimed result is reaped --------------------
    xe = rng.integers(-8, 8, (M, K))
    she = share_arith_nd(from_signed(xe, RING_BITS), rng, bits=RING_BITS)

    def abandon(d, i):
        req = d.submit("ghost", she[i])
        req.done.wait(TIMEOUT)
        while not req.expired:  # reaper tick
            time.sleep(0.05)
        try:
            req.result(5.0)
            raise AssertionError("expired lease should not serve a result")
        except LeaseExpired:
            return True

    e0, e1 = run_concurrently(
        lambda: abandon(d0, 0), lambda: abandon(d1, 1), TIMEOUT
    )
    assert e0 and e1
    print("unclaimed result reaped at lease expiry (LeaseExpired raised)")

    tel = svc0.telemetry()
    print(
        "daemon telemetry: "
        f"admitted={tel['daemon/p0/admitted']} "
        f"completed={tel['daemon/p0/completed']} "
        f"batch_items={tel['daemon/p0/batch_items']} "
        f"expired_leases={tel['daemon/p0/expired_leases']} "
        f"attaches={tel['daemon/p0/attaches']}"
    )
    run_concurrently(lambda: d0.stop(60.0), lambda: d1.stop(60.0), 120.0)
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()
    print("done")


if __name__ == "__main__":
    main()
