#!/usr/bin/env python
"""A private-inference service with an explicit preprocessing phase.

The paper's Figure 1(b) argument is that OT extension is a *service*:
pay the public-key Init once, then stream correlations to whoever needs
them -- and Section 5.2's point is that for PPML those correlations are
**preprocessing**: produced ahead of time, merely consumed online.
This example runs the whole shape end to end:

* two parties share ONE duplex link, multiplexed into tagged
  sub-channels (`prov/*` for the background Ferret extends and derived
  production, `sess/*` for consumers);
* a :class:`repro.runtime.CorrelationService` per party fills typed
  pools (COTs both directions, bit and matrix triples)
  in a worker thread: out to the absolute produce targets a plan sets,
  and to what a draw reserves ahead of production -- nothing else;
* a **preprocessing planner** walks a quantized 3-layer MLP graph --
  matmul -> trunc -> ReLU -> matmul -> trunc -> matmul -- computes its
  exact per-layer correlation demand (matrix triples, comparison COTs,
  bit triples, the comparison and B2A COTs of secure truncation);
* the **pipelined preprocessing** phase (``plan.prefill_pipelined``)
  then streams that demand layer by layer: the online phase of layer i
  starts as soon as layer i's correlations are pooled, while the
  pipeline, run on a thread of its own, keeps layer i+1's production
  running under the online rounds -- the software analogue of Ironman's Fig. 8 schedule
  overlap.  The online phase is ``repro.runtime.run_online``, the one
  executor of a planned graph: it gates each op on
  ``pipe.wait_layer`` and runs each linear+rescale block on the fused
  ``matmul_rescale_via_service`` verb, whose one draw covers the
  matrix triple and the truncation material;
* the result is **bit-exact** against a plaintext numpy fixed-point
  oracle, every draw matches the plan, and no planned pool ever
  stalls -- layer 0's preprocessing is the only thing the first online
  round ever waited for.

Run:  python examples/inference_service.py
"""

import threading

import numpy as np

from repro.ferret.config import FerretConfig
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import LocalChannel, run_concurrently
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning, compile_ops, run_online
from repro.utils.tables import print_table

RING_BITS = 16
MASK = ring_mask_u64(RING_BITS)

#: Fixed-point format of the quantized MLP: scale 2^4 in a 16-bit ring.
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)

# The planned model: x (4x12) @ W1 (12x6) -> trunc -> ReLU
#                      @ W2 (6x5) -> trunc -> @ W3 (5x3).
M, K, H1, H2, OUT = 4, 12, 6, 5, 3


def build_model() -> Graph:
    g = Graph("QuantMLP3", (M, K))
    g.add(Linear(H1))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(H2))
    g.add(Rescale())
    g.add(Linear(OUT))
    return g


def fixed_point_oracle(x, w1, w2, w3):
    """Plaintext reference: integer fixed-point, floor rescale per layer."""
    h = (x @ w1) >> FX.frac_bits
    h = np.maximum(h, 0)
    h = (h @ w2) >> FX.frac_bits
    return ((h @ w3).astype(np.int64) & int(MASK)).astype(np.uint64)


def main():
    rng = np.random.default_rng(77)
    cfg = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
    print(f"ferret config: n={cfg.params.n}, net {cfg.net_output} COTs/extend")

    # One duplex link; everything below shares it through the mux.
    base0, base1 = LocalChannel.pair(timeout=120.0)
    mux0, mux1 = MuxChannel(base0), MuxChannel(base1)
    tuning = ServiceTuning(ring_bits=RING_BITS, triple_chunk=512)
    svc0 = CorrelationService(0, mux0, cfg, tuning).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning).start()

    # ---- preprocessing phase: plan the quantized model ---------------------
    model = build_model()
    plan = plan_graph(model, bits=RING_BITS, fx=FX)
    print()
    header, *rows = plan.summary_rows()
    print_table(
        header,
        rows,
        title=f"preprocessing plan: {plan.model} (fixed point {FX.bits}.{FX.frac_bits})",
    )
    stall_before = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}
    draws_before = svc0.session_draw_counts()

    # Pipelined mode: production is scheduled layer by layer, on one
    # thread per party, and the online phase below starts as soon as
    # layer 0's demand is pooled.
    pipe0 = plan.prefill_pipelined(svc0, timeout=180.0)
    pipe1 = plan.prefill_pipelined(svc1, timeout=180.0)
    producers = [threading.Thread(target=pipe.run, daemon=True) for pipe in (pipe0, pipe1)]
    for producer in producers:
        producer.start()

    # ---- secret fixed-point inputs ----------------------------------------
    x_plain = rng.integers(-8, 8, (M, K))
    w1_plain = rng.integers(-4, 4, (K, H1))
    w2_plain = rng.integers(-4, 4, (H1, H2))
    w3_plain = rng.integers(-4, 4, (H2, OUT))
    x_sh = share_arith_nd(from_signed(x_plain, RING_BITS), rng, bits=RING_BITS)
    w1_sh = share_arith_nd(from_signed(w1_plain, RING_BITS), rng, bits=RING_BITS)
    w2_sh = share_arith_nd(from_signed(w2_plain, RING_BITS), rng, bits=RING_BITS)
    w3_sh = share_arith_nd(from_signed(w3_plain, RING_BITS), rng, bits=RING_BITS)

    # ---- online phase: each op gates on the LAST plan layer whose ---------
    # correlations it draws, so layer i's openings run while the service
    # produces layer i+1's triples underneath.
    def online(svc, pipe, party, seed):
        return lambda: run_online(
            plan, svc.session("qmlp"),
            [w1_sh[party], w2_sh[party], w3_sh[party]], [x_sh[party]],
            np.random.default_rng(seed), pipe.wait_layer,
        )[0]

    z0, z1 = run_concurrently(
        online(svc0, pipe0, 0, 30), online(svc1, pipe1, 1, 40), timeout=300.0
    )
    for producer, pipe in zip(producers, (pipe0, pipe1)):
        producer.join()
        if pipe.error is not None:
            raise pipe.error
    got = (z0 + z1) & MASK
    expect = fixed_point_oracle(x_plain, w1_plain, w2_plain, w3_plain)
    assert np.array_equal(got, expect), "quantized inference != fixed-point oracle"
    print(f"\nquantized 3-layer MLP online output bit-exact vs oracle {got.shape}")
    first_gate = compile_ops(model)[0][1]  # linear1 + rescale pooled
    print(
        "pipelined prefill: first layer online after "
        f"{pipe0.ready_elapsed(first_gate):.2f}s, full plan pooled after "
        f"{pipe0.ready_elapsed(pipe0.n_layers - 1):.2f}s"
    )

    # The planner's demand is exact: draws == plan, and with the online
    # phase gated on wait_layer no planned pool ever stalled -- layer
    # 0's production is the only thing the first draw waited for.
    for kind, count in plan.pool_targets().items():
        drawn = svc0.session_draw_counts().get(kind, 0) - draws_before.get(kind, 0)
        assert drawn == count, f"{kind}: drew {drawn}, planned {count}"
    stall_after = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}
    for kind in plan.pool_targets():
        assert stall_after[kind] == stall_before.get(kind, 0), kind
    print("online draws == plan for every pool kind; zero production stalls")

    svc0.stop()
    svc1.stop()
    print(f"\nextends run: fwd={svc0.extends['fwd']}, rev={svc0.extends['rev']}")
    print("pool stats (party 0):")
    for kind, stats in sorted(svc0.pool_stats().items()):
        print(
            f"  {kind:12s} drawn={stats['items_drawn']:6d} "
            f"refills={stats['refills']:3d} hit_rate={stats['hit_rate']:.2f} "
            f"stall={stats['stall_time_s']:.2f}s"
        )
    print("link attribution (party 0, bytes sent by tag):")
    for tag, stats in sorted(mux0.stats_by_tag().items()):
        print(f"  {tag:12s} {stats.bytes_sent:9,d} B  rounds={stats.rounds}")
    prov = sum(
        s.bytes_sent for t, s in mux0.stats_by_tag().items() if t.startswith("prov/")
    )
    sess = sum(
        s.bytes_sent for t, s in mux0.stats_by_tag().items() if t.startswith("sess/")
    )
    total = base0.stats.bytes_sent
    print(
        f"provisioning {prov:,} B + sessions {sess:,} B = link total {total:,} B "
        f"({100 * sess / total:.1f}% consumer traffic)"
    )


if __name__ == "__main__":
    main()
