"""DReLU and ReLU on additive shares (the paper's flagship nonlinearity).

DReLU(x) = [x >= 0] for a two's-complement ring value ``x`` shared as
``x = (x0 + x1) mod 2^l``.  Writing ``low_i = x_i mod 2^(l-1)``:

    msb(x) = msb(x0) XOR msb(x1) XOR carry
    carry  = [low0 + low1 >= 2^(l-1)]
           = [low1 > (2^(l-1) - 1 - low0)]

so the carry is exactly one millionaires' comparison with P0's private
input ``2^(l-1)-1-low0`` and P1's private input ``low1`` -- and
``DReLU = NOT msb``.  ReLU multiplexes the arithmetic shares with the
boolean DReLU shares through two OTs (one per direction, again the
unified-architecture workload), each ring element a ``bits``-wide lane
of the OT reply (2 B on a 16-bit ring).

What one ReLU consumes from a provisioning service is declared once, in
:func:`relu_draws`: :func:`relu_via_service` draws that list and the
preprocessing planner prices it.
"""

from __future__ import annotations

import numpy as np

from repro.mpc.compare import (
    cots_needed,
    millionaire_p0,
    millionaire_p1,
    triples_needed,
)
from repro.mpc.sharing import ArithmeticShares, BooleanShares, ring_mask
from repro.mpc.triples import BitTriples
from repro.ot.channel import Channel
from repro.ot.cot import CotPool
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot

_MUX_TWEAK = 1 << 28


def _drelu_party(
    channel: Channel,
    shares: ArithmeticShares,
    pool: CotPool,
    triples: BitTriples,
    rng,
    party: int,
) -> BooleanShares:
    bits = shares.bits
    low_mask = np.uint64((1 << (bits - 1)) - 1)
    values = shares.values.astype(np.uint64)
    msb_share = ((values >> np.uint64(bits - 1)) & np.uint64(1)).astype(np.uint8)
    low = values & low_mask
    if party == 0:
        x_private = low_mask - low  # 2^(l-1) - 1 - low0
        carry = millionaire_p0(channel, x_private, bits - 1, pool, triples, rng)
        # DReLU = NOT msb: fold the NOT into P0's share.
        out = msb_share ^ carry ^ 1
    else:
        carry = millionaire_p1(channel, low, bits - 1, pool, triples)
        out = msb_share ^ carry
    return BooleanShares(out)


def _mux_party(
    channel: Channel,
    b: BooleanShares,
    x: ArithmeticShares,
    send_pool: CotPool,
    recv_pool: CotPool,
    rng,
    party: int,
) -> ArithmeticShares:
    """Shares of b * x from boolean b-shares and arithmetic x-shares.

    y = b0*x0 + b1*x1 + b1*[x0(1-2*b0)] + b0*[x1(1-2*b1)]; each bracket
    couples one party's ring value with the other's bit -> one OT.
    """
    n = len(x)
    mask = np.uint64(ring_mask(x.bits))
    vals = x.values.astype(np.uint64)
    bits_vec = b.bits_vec.astype(np.uint64)
    coeff = (vals * (np.uint64(1) - np.uint64(2) * bits_vec)) & mask

    def send_side(tweak):
        r = rng.integers(0, 1 << x.bits, n, dtype=np.uint64)
        ot_send_from_cot(
            channel, send_pool.take_sender(n), r, (r + coeff) & mask,
            tweak_base=tweak, bits=x.bits,
        )
        return (-r) & mask

    def recv_side(tweak):
        return ot_receive_from_cot(
            channel, recv_pool.take_receiver(n), b.bits_vec, tweak_base=tweak, bits=x.bits
        )

    if party == 0:
        u = send_side(_MUX_TWEAK)
        v = recv_side(_MUX_TWEAK + n)
    else:
        v = recv_side(_MUX_TWEAK)
        u = send_side(_MUX_TWEAK + n)
    local = (bits_vec * vals) & mask
    out = (local + u + v) & mask
    return ArithmeticShares(out.astype(x.values.dtype), x.bits)


def drelu_pair(channel, shares, pool, triples, rng, party) -> BooleanShares:
    """One party's DReLU evaluation; call from both parties in lockstep."""
    return _drelu_party(channel, shares, pool, triples, rng, party)


def relu_pair(
    channel: Channel,
    shares: ArithmeticShares,
    cmp_pool: CotPool,
    send_pool: CotPool,
    recv_pool: CotPool,
    triples: BitTriples,
    rng,
    party: int,
) -> tuple:
    """Full ReLU on additive shares: DReLU then multiplex.

    Returns (relu_shares, drelu_shares).  ``cmp_pool`` feeds the
    comparison's digit OTs (this party's fixed role); the mux needs
    OTs in *both* directions, hence the separate send/recv pools --
    the role-switching requirement Section 5.2 motivates.
    """
    d = drelu_pair(channel, shares, cmp_pool, triples, rng, party)
    y = _mux_party(channel, d, shares, send_pool, recv_pool, rng, party)
    return y, d


def relu_draws(n: int, bits: int) -> list:
    """The ordered ``(pool kind, key, count)`` list one ReLU of n
    ``bits``-bit shares consumes: the comparison's digit COTs (P0
    sends), one mux COT per element in each direction, and the
    comparison's bit triples."""
    return [
        ("cot/fwd", (), cots_needed(n, bits - 1)),
        ("cot/fwd", (), n),
        ("cot/rev", (), n),
        ("tri", (), triples_needed(n, bits - 1)),
    ]


def relu_via_service(session, shares: ArithmeticShares, rng) -> tuple:
    """ReLU drawing every correlation from a provisioning-service session.

    Instead of hand-building COT pools and pre-generating triples (the
    inline-Ferret pattern of the examples), both parties draw
    :func:`relu_draws` from the shared
    :class:`repro.runtime.service.CorrelationService` pools -- each
    gets its own role's half of every range -- and run the unchanged
    :func:`relu_pair` over the session's sub-channel.
    """
    (cmp, fwd, rev, triples), _ = session.draw(relu_draws(len(shares), shares.bits))
    # Party 0 is the COT sender forward, party 1 in reverse.
    send, recv = (fwd, rev) if session.party == 0 else (rev, fwd)
    return relu_pair(
        session.channel, shares, CotPool.of(cmp), CotPool.of(send), CotPool.of(recv),
        triples, rng, session.party,
    )
