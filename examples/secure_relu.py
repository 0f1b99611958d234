#!/usr/bin/env python
"""End-to-end secure ReLU: the paper's Section 2.2 pipeline, live.

Two parties hold additive shares of a neuron activation vector.  They
(1) extend base OTs into COT correlations, (2) burn them in Beaver
bit-triple generation and per-bit comparison OTs, and (3) evaluate
DReLU + multiplexer -- ending with fresh shares of ReLU(x) while
neither party learns x.  Note the mux needs OTs in *both* directions:
the role-switching workload Ironman's unified unit exists for.

Run:  python examples/secure_relu.py
"""

import numpy as np

from repro.crypto import blocks
from repro.mpc.compare import cots_needed, triples_needed
from repro.mpc.relu import relu_pair
from repro.mpc.sharing import from_signed, reconstruct_arith, share_arith, to_signed
from repro.mpc.triples import generate_bit_triples
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch

BITS = 16
N = 32


def make_pools(n, seed):
    gen = np.random.default_rng(seed)
    delta = blocks.random_blocks(1, gen)
    choices = gen.integers(0, 2, n).astype(np.uint8)
    r, y, _, _ = run_pair(
        lambda ch: base_cot_send(ch, n, delta, gen),
        lambda ch: base_cot_receive(ch, choices, np.random.default_rng(seed + 1)),
    )
    return CotPool(sender=CotSenderBatch(delta, r)), CotPool(
        receiver=CotReceiverBatch(choices, y)
    )


def main():
    rng = np.random.default_rng(7)
    activations = rng.integers(-(1 << 13), 1 << 13, N)
    s0, s1 = share_arith(from_signed(activations, BITS), rng, bits=BITS)
    print(f"secret activations (first 8): {activations[:8]}")
    print(f"P0 share (first 8):           {to_signed(s0.values[:8], BITS)}")

    # Preprocessing: correlations for comparison OTs, triples and mux.
    n_cmp = cots_needed(N, BITS - 1)
    n_tri = triples_needed(N, BITS - 1)
    cmp0, cmp1 = make_pools(n_cmp, 11)
    mux0_s, mux1_r = make_pools(N, 12)
    mux1_s, mux0_r = make_pools(N, 13)  # reversed roles!
    tri0_s, tri1_r = make_pools(n_tri, 14)
    tri1_s, tri0_r = make_pools(n_tri, 15)
    rng0, rng1 = np.random.default_rng(1), np.random.default_rng(2)
    t0, t1, _, _ = run_pair(
        lambda ch: generate_bit_triples(ch, n_tri, tri0_s, tri0_r, rng0, party=0),
        lambda ch: generate_bit_triples(ch, n_tri, tri1_s, tri1_r, rng1, party=1),
    )
    print(f"preprocessing: {n_cmp} comparison COTs, {n_tri} bit triples, "
          f"{2 * N} mux COTs (both directions)")

    # Online: DReLU + mux on shares.
    (y0, d0), (y1, d1), st0, st1 = run_pair(
        lambda ch: relu_pair(ch, s0, cmp0, mux0_s, mux0_r, t0, rng0, party=0),
        lambda ch: relu_pair(ch, s1, cmp1, mux1_s, mux1_r, t1, rng1, party=1),
    )
    result = to_signed(reconstruct_arith(y0, y1), BITS)
    expect = np.maximum(activations, 0)
    assert np.array_equal(result, expect)
    assert np.array_equal(d0.bits_vec ^ d1.bits_vec, (activations >= 0).astype(np.uint8))
    print(f"ReLU(x) reconstructed:        {result[:8]}")
    print(f"plaintext reference:          {expect[:8]}")
    print(f"match: True | online comm: {st0.bytes_sent + st1.bytes_sent} B, "
          f"{st0.rounds + st1.rounds} rounds for {N} ReLUs at {BITS} bits")


if __name__ == "__main__":
    main()
