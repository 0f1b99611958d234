"""Secure maximum on additive shares (the MaxPool building block).

``max(a, b) = b + ReLU(a - b)``: the difference of shares is local,
so one secure maximum costs exactly one DReLU + one multiplexer --
which is how the framework cost tables charge MaxPool comparisons
(one "maxpool_cmp" per window element beyond the first).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.mpc.relu import relu_draws, relu_pair, relu_via_service
from repro.mpc.sharing import ArithmeticShares, ring_mask
from repro.mpc.triples import BitTriples
from repro.ot.channel import Channel
from repro.ot.cot import CotPool


def _max_from_relu(a: ArithmeticShares, b: ArithmeticShares, relu_fn) -> ArithmeticShares:
    """``max(a, b) = b + ReLU(a - b)``: the ring arithmetic around any
    ReLU evaluation (inline pools or service-drawn)."""
    if a.bits != b.bits or len(a) != len(b):
        raise ParameterError("secure max needs aligned share vectors")
    mask = np.uint64(ring_mask(a.bits))
    diff = ArithmeticShares(
        ((a.values.astype(np.uint64) - b.values.astype(np.uint64)) & mask).astype(
            a.values.dtype
        ),
        a.bits,
    )
    relu_diff, _ = relu_fn(diff)
    out = (b.values.astype(np.uint64) + relu_diff.values.astype(np.uint64)) & mask
    return ArithmeticShares(out.astype(a.values.dtype), a.bits)


def max_pair(
    channel: Channel,
    a: ArithmeticShares,
    b: ArithmeticShares,
    cmp_pool: CotPool,
    send_pool: CotPool,
    recv_pool: CotPool,
    triples: BitTriples,
    rng,
    party: int,
) -> ArithmeticShares:
    """Shares of elementwise max(a, b); call from both parties.

    Consumes one comparison's worth of COTs/triples plus one mux --
    exactly the per-element cost MaxPool layers are priced at.
    """
    return _max_from_relu(
        a,
        b,
        lambda diff: relu_pair(
            channel, diff, cmp_pool, send_pool, recv_pool, triples, rng, party
        ),
    )


def max_draws(n: int, bits: int) -> list:
    """What one secure max of n element pairs consumes: one ReLU's list."""
    return relu_draws(n, bits)


def max_via_service(
    session, a: ArithmeticShares, b: ArithmeticShares, rng
) -> ArithmeticShares:
    """Secure elementwise max drawing correlations from a service session.

    The ReLU side draws its comparison COTs, mux COTs (both
    directions), and triples from the shared provisioning pools, so
    MaxPool windows run as just another consumer session next to ReLU
    and triple traffic.
    """
    return _max_from_relu(a, b, lambda diff: relu_via_service(session, diff, rng))
