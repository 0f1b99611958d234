"""Secure fixed-point truncation on additive mod-2^k shares.

Quantized inference multiplies scale-2^f fixed-point operands, so every
product carries scale 2^(2f); without a secure rescaling step the scale
doubles at every linear layer and a multi-layer network overflows the
ring (the reason PR 3's MLP had to budget magnitudes by hand).  This
module supplies the missing primitive, driven by one
:class:`FixedPointConfig` and built on ONE shift protocol
(:func:`_shift_shares`): on a shared ``y = y0 + y1 mod 2^bits`` each
party shifts its own share, the share wrap ``[y0 + y1 >= 2^bits]`` and
the low borrow ``[l0 + l1 >= 2^f]`` come from two millionaires'
comparisons on the *private* shares (the DReLU carry shape,
:mod:`repro.mpc.compare`), and one Gilboa B2A (one COT per bit)
arithmetizes them: the outputs sum to exactly ``floor(y / 2^f)``.

Online it runs on ``x`` itself (:func:`truncate_shares`, party 0
folding in the two's-complement bias): bit-exact ``floor(x / 2^f)`` for
EVERY ring value and share split, no headroom needed, which is what lets
a whole quantized network be equality-tested against a plaintext
fixed-point oracle.

Truncation consumes only pooled correlations (comparison COTs and bit
triples), so it slots into the preprocessing/online split like MatMul
and ReLU.  :func:`trunc_draws` lists what it consumes (drawn by
:func:`trunc_via_service` and the fused matmul+rescale verb, priced by
:mod:`repro.ppml.plan`).  The byte predictor (:func:`trunc_bytes`) is
exact and equality-tested against measured channel stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.mpc.compare import (
    _bits_msg,
    cots_needed,
    millionaire_bytes,
    millionaire_messages,
    millionaire_p0,
    millionaire_p1,
    triples_needed,
)
from repro.mpc.triples import BitTriples, gilboa_receive, gilboa_send, ring_mask_u64
from repro.ot.channel import Channel
from repro.ot.cot import CotPool

#: Tweak offset separating the second (low-part) millionaires' run from
#: the first; one run's digit OTs take the contiguous tweaks
#: ``tweak_base + [0, cots_needed(n, l))`` (compare.py), so 2^26 keeps the two
#: comparison batches disjoint.
_CARRY_TWEAK = 1 << 26

#: Tweak offset of the Gilboa B2A batch inside one truncation call.
_B2A_TWEAK = 1 << 27

_U64_ONE = np.uint64(1)


@dataclass(frozen=True)
class FixedPointConfig:
    """Fixed-point number format threaded through the PPML stack.

    A real value v is encoded as ``round(v * 2^frac_bits)`` embedded in
    Z_2^bits (two's complement).  ``mag_bits`` is an optional magnitude
    bound promised by the caller (``|x| < 2^mag_bits`` for every value
    fed to truncation).  Truncation is exact for every ring value and
    does not read it; the headroom ``bits - 1 - mag_bits`` is what a
    cheaper known-MSB wrap test could rely on.
    """

    bits: int
    frac_bits: int
    mag_bits: int = None

    def __post_init__(self):
        if not 1 <= self.frac_bits < self.bits <= 64:
            raise ParameterError(
                "need 1 <= frac_bits < bits <= 64 for fixed-point rescaling"
            )
        if self.mag_bits is not None and not (
            self.frac_bits <= self.mag_bits <= self.bits - 2
        ):
            raise ParameterError("mag_bits must be in [frac_bits, bits - 2]")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def mask(self) -> np.uint64:
        return ring_mask_u64(self.bits)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Real values -> scale-2^f ring elements (two's complement)."""
        fixed = np.round(np.asarray(values, dtype=np.float64) * self.scale)
        return fixed.astype(np.int64).astype(np.uint64) & self.mask

    def decode(self, ring: np.ndarray) -> np.ndarray:
        """Ring elements -> real values at scale 2^f."""
        return self.to_signed(ring).astype(np.float64) / self.scale

    def to_signed(self, ring: np.ndarray) -> np.ndarray:
        ring = np.asarray(ring, dtype=np.uint64) & self.mask
        half = np.uint64(1) << np.uint64(self.bits - 1)
        signed = ring.astype(np.int64)
        if self.bits < 64:
            signed = np.where(ring >= half, signed - (1 << self.bits), signed)
        return signed

    def trunc_reference(self, ring: np.ndarray) -> np.ndarray:
        """The plaintext oracle: ``floor(signed(x) / 2^f)`` re-embedded.

        Arithmetic right shift of the two's-complement value -- the
        exact function :func:`truncate_shares` (exact mode) computes.
        """
        return (
            self.to_signed(ring) >> np.int64(self.frac_bits)
        ).astype(np.uint64) & self.mask


# ---------------------------------------------------------------------------
# Correlation / wire-cost accounting (single source of truth; the
# planner, the runtime pools, and the byte-model tests all import these)
# ---------------------------------------------------------------------------


def trunc_cots(cfg_bits: int, frac_bits: int) -> int:
    """Forward-direction COTs one truncation consumes per element: a
    ``bits``-bit and a ``frac``-bit millionaires' comparison
    (:func:`repro.mpc.compare.cots_needed`) plus 2 Gilboa B2A
    correlations."""
    return cots_needed(1, cfg_bits) + cots_needed(1, frac_bits) + 2


def trunc_bit_triples(cfg_bits: int, frac_bits: int) -> int:
    """Bit triples one truncation consumes per element: its two
    comparisons' AND trees (:func:`repro.mpc.compare.triples_needed`)."""
    return triples_needed(1, cfg_bits) + triples_needed(1, frac_bits)


def trunc_draws(n: int, cfg: FixedPointConfig) -> list:
    """The ordered ``(pool kind, key, count)`` list one online truncation
    of n elements consumes -- what :func:`trunc_via_service` draws and
    the planner prices: the shift protocol's forward COTs and the bit
    triples of its comparisons' AND trees."""
    return [
        ("cot/fwd", (), n * trunc_cots(cfg.bits, cfg.frac_bits)),
        ("tri", (), n * trunc_bit_triples(cfg.bits, cfg.frac_bits)),
    ]


def trunc_bytes(n: int, cfg: FixedPointConfig) -> int:
    """Exact wire bytes (both parties) of one n-element truncation: two
    millionaires' comparisons plus the Gilboa B2A half-messages (one bit
    + one masked ring element per correlation, 2n correlations)."""
    gilboa = _bits_msg(2 * n) + 2 * n * 8
    return (
        millionaire_bytes(n, cfg.bits)
        + millionaire_bytes(n, cfg.frac_bits)
        + gilboa
    )


def trunc_messages(cfg: FixedPointConfig) -> int:
    """Exact message count (both parties) of one truncation call.

    Multiplied by a transport's per-message framing overhead (e.g. a
    :class:`repro.runtime.mux.MuxChannel` tag header) this converts the
    raw byte predictor into framed per-tag byte predictions.
    """
    return (
        millionaire_messages(cfg.bits)
        + millionaire_messages(cfg.frac_bits)
        + 2  # Gilboa: correction bits + masked payloads
    )


# ---------------------------------------------------------------------------
# The shift protocol
# ---------------------------------------------------------------------------


def _b2a_gilboa(
    channel: Channel,
    pool: CotPool,
    bit_shares: np.ndarray,
    scales: np.ndarray,
    bits: int,
    party: int,
    tweak_base: int,
) -> np.ndarray:
    """Arithmetic shares of ``(b0 XOR b1) * scale`` from XOR bit shares.

    One Gilboa correlation per bit, party 0 the sender: its correlated
    payload is ``(1 - 2*b_0) * scale`` and party 1 selects with its bit,
    so the outputs sum to ``b_1*(1 - 2*b_0)*scale``; party 0 adds
    ``b_0*scale`` locally to complete ``(b_0 + b_1 - 2*b_0*b_1)*scale``.
    """
    mask = ring_mask_u64(bits)
    n = bit_shares.shape[0]
    tweaks = np.arange(tweak_base, tweak_base + n, dtype=np.uint64)
    b = bit_shares.astype(np.uint64)
    scales = np.asarray(scales, dtype=np.uint64)
    if party == 0:
        corr = ((_U64_ONE - np.uint64(2) * b) * scales & mask).reshape(n, 1)
        share = gilboa_send(channel, pool.take_sender(n), corr, bits, tweaks)
        return (share.reshape(n) + b * scales) & mask
    got = gilboa_receive(channel, pool.take_receiver(n), b, 1, bits, tweaks)
    return got.reshape(n) & mask


def _shift_shares(
    channel: Channel,
    y: np.ndarray,
    bits: int,
    frac_bits: int,
    pool: CotPool,
    triples: BitTriples,
    rng: np.random.Generator,
    party: int,
    tweak_base: int,
) -> np.ndarray:
    """This party's share of exactly ``y >> f`` for ``y = y0 + y1 mod
    2^bits`` (the one shift protocol behind truncation).

    The locally shifted shares ``y_p >> f`` differ from the shares of
    ``y >> f`` by the share wrap ``[y0 + y1 >= 2^bits]`` (worth
    ``-2^(bits-f)``) and the low borrow ``[l0 + l1 >= 2^f]`` (worth 1) --
    both millionaires' comparisons on *privately held* inputs (the DReLU
    carry shape), their XOR-shared outputs arithmetized with one Gilboa
    B2A.  Party 0 is the COT sender throughout; consumes
    :func:`trunc_cots` COTs and :func:`trunc_bit_triples` bit triples
    per element.
    """
    n = y.shape[0]
    mask = ring_mask_u64(bits)
    low_mask = np.uint64((1 << frac_bits) - 1)
    low = y & low_mask
    if party == 0:
        wrap = millionaire_p0(
            channel, mask - y, bits, pool, triples, rng, tweak_base=tweak_base
        )
        borrow = millionaire_p0(
            channel, low_mask - low, frac_bits, pool, triples, rng,
            tweak_base=tweak_base + _CARRY_TWEAK,
        )
    else:
        wrap = millionaire_p1(channel, y, bits, pool, triples, tweak_base=tweak_base)
        borrow = millionaire_p1(
            channel, low, frac_bits, pool, triples,
            tweak_base=tweak_base + _CARRY_TWEAK,
        )
    big = _U64_ONE << np.uint64(bits - frac_bits)
    scales = np.concatenate(
        [np.full(n, big, dtype=np.uint64), np.ones(n, dtype=np.uint64)]
    )
    arith = _b2a_gilboa(
        channel, pool, np.concatenate([wrap, borrow]), scales, bits,
        party, tweak_base=tweak_base + _B2A_TWEAK,
    )
    return ((y >> np.uint64(frac_bits)) - arith[:n] + arith[n:]) & mask


# ---------------------------------------------------------------------------
# Online protocol
# ---------------------------------------------------------------------------


def truncate_shares(
    channel: Channel,
    x_share: np.ndarray,
    cfg: FixedPointConfig,
    party: int,
    pool: CotPool,
    triples: BitTriples,
    rng: np.random.Generator = None,
    tweak_base: int = 0,
) -> np.ndarray:
    """Exact truncation of additively shared ring values.

    Party 0 folds in the two's-complement bias ``2^(bits-1)``, the shift
    protocol (:func:`_shift_shares`) shifts the biased value exactly,
    and party 0 removes the shifted bias: the result is bit-exact
    ``floor(x/2^f)`` for every ring value and share split.

    Args:
        pool: COT pool in the direction where party 0 is the sender.
        triples: Beaver bit triples for the comparisons' AND trees
            (consumed); counts as :func:`trunc_draws` lists them.
        rng: party 0's comparison OT masks; defaults to a fresh
            OS-seeded generator -- these masks are one-time pads over
            party 0's private share bits, so they must never come from
            a seed the peer could predict.
    """
    mask = cfg.mask
    k, f = cfg.bits, cfg.frac_bits
    y = np.asarray(x_share, dtype=np.uint64).reshape(-1) & mask
    rng = rng if rng is not None else np.random.default_rng()
    if party == 0:
        y = (y + (_U64_ONE << np.uint64(k - 1))) & mask
    z = _shift_shares(channel, y, k, f, pool, triples, rng, party, tweak_base)
    if party == 0:
        z = (z - (_U64_ONE << np.uint64(k - 1 - f))) & mask
    return z


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------


def require_service_ring(session, cfg: FixedPointConfig) -> None:
    """Fail before any draw when the session's service pools another ring."""
    svc_bits = session.service.tuning.ring_bits
    if svc_bits != cfg.bits:
        raise ParameterError(
            f"service produces {svc_bits}-bit correlations, config wants {cfg.bits}"
        )


def trunc_via_service(
    session,
    x_share: np.ndarray,
    cfg: FixedPointConfig,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Exact truncation drawing every correlation from a provisioning
    session.

    Both parties call in lockstep; the session draws :func:`trunc_draws`
    in one allocation message.
    """
    require_service_ring(session, cfg)
    x = np.asarray(x_share, dtype=np.uint64).reshape(-1)
    (cots, triples), _ = session.draw(trunc_draws(x.shape[0], cfg))
    return truncate_shares(
        session.channel, x, cfg, session.party, CotPool.of(cots), triples, rng=rng
    )
