"""Secure fixed-point truncation on additive mod-2^k shares.

Quantized inference multiplies scale-2^f fixed-point operands, so every
product carries scale 2^(2f); without a secure rescaling step the scale
doubles at every linear layer and a multi-layer network overflows the
ring (the reason PR 3's MLP had to budget magnitudes by hand).  This
module supplies the missing primitive in the three shapes PPML
frameworks use, all driven by one :class:`FixedPointConfig`:

* **Pair mode** (:func:`truncate_pair_online`) -- the ABY3-style
  probabilistic truncation.  Preprocessing provides a **truncation
  pair**: additive shares of a uniform mask ``r`` and of ``r >> f``
  (:func:`generate_trunc_pairs`, pooled by the runtime's
  ``TruncPairPool`` under the ``TPRC`` opcode).  Online, the parties
  open ``c = x + r`` (one ring element each -- a single round, no OT)
  and output ``(c >> f) - [r >> f]``.  Requires ``mag_bits`` headroom:
  with ``|x| < 2^mag_bits`` the result is ``floor(x / 2^f)`` or one
  more, except with probability ``2^(mag_bits + 1 - bits)``.
* **Wrap-fixed mode** (:func:`truncate_shares` with ``exact=False``) --
  CrypTFlow2-style: each party shifts its own share locally, and the
  share-wrap bit ``t = [x0 + x1 >= 2^bits]`` -- exactly the DReLU carry
  shape -- is computed with one millionaires' comparison on the two
  *private* shares (:mod:`repro.mpc.compare`) and subtracted after a
  B2A conversion.  Correct within one ULP (``floor(x/2^f) - 1`` or
  exact) for EVERY ring value and share split -- no headroom needed.
* **Exact mode** (``exact=True``) -- additionally fixes the low-part
  borrow ``[l0 + l1 >= 2^f]`` with a second (``f``-bit) millionaires'
  comparison: the output is bit-exact ``floor(x / 2^f)``, which is what
  lets a whole quantized network be equality-tested against a plaintext
  fixed-point oracle.

Every mode consumes only pooled correlations (trunc pairs, comparison
COTs, bit triples, ring triples for B2A), so truncation slots into the
preprocessing/online split like MatMul and ReLU.  The mode is
dispatched twice and no more: :func:`trunc_draws` lists what a mode
consumes (drawn by :func:`trunc_via_service` and the fused
matmul+rescale verb, priced by :mod:`repro.ppml.plan`) and
:func:`truncate` runs its protocol on the drawn batches.  The
byte predictors (:func:`trunc_online_bytes`,
:func:`trunc_preproc_bytes`) are exact and equality-tested against
measured channel stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError, ProtocolError
from repro.mpc.compare import (
    _bits_msg,
    millionaire_bytes,
    millionaire_messages,
    millionaire_p0,
    millionaire_p1,
    triples_needed,
)
from repro.mpc.triples import (
    BitTriples,
    RingTriples,
    gilboa_receive,
    gilboa_send,
    mul_shared,
    ring_mask_u64,
)
from repro.ot.channel import Channel
from repro.ot.cot import CotPool

#: Tweak offset separating the second (low-part) millionaires' run from
#: the first; one run's level OTs take the contiguous tweaks
#: ``tweak_base + [0, l*n)`` (compare.py), so 2^26 keeps the two
#: comparison batches disjoint.
_CARRY_TWEAK = 1 << 26

#: Tweak offset of the Gilboa B2A batch inside one truncation call.
_B2A_TWEAK = 1 << 27

_U64_ONE = np.uint64(1)


def _rand_ring(rng: np.random.Generator, n: int, bits: int) -> np.ndarray:
    """n uniform elements of Z_2^bits (bits=64 included) as uint64."""
    return rng.integers(0, 1 << bits, n, dtype=np.uint64)


@dataclass(frozen=True)
class FixedPointConfig:
    """Fixed-point number format threaded through the PPML stack.

    A real value v is encoded as ``round(v * 2^frac_bits)`` embedded in
    Z_2^bits (two's complement).  ``mag_bits`` is the magnitude bound
    promised by the caller (``|x| < 2^mag_bits`` for every value fed to
    pair-mode truncation); the headroom ``bits - 1 - mag_bits`` is what
    makes probabilistic truncation safe.  Exact/wrap-fixed truncation
    does not need it.
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


def trunc_pair_cots(cfg_bits: int, frac_bits: int) -> int:
    """Forward-direction COTs one truncation pair consumes at
    preprocessing: a ``bits``-bit and a ``frac``-bit millionaires'
    comparison (one COT per level) plus 2 Gilboa B2A correlations."""
    return cfg_bits + frac_bits + 2


def trunc_pair_bit_triples(cfg_bits: int, frac_bits: int) -> int:
    """Bit triples one truncation pair consumes: its two comparisons'
    AND trees (:func:`repro.mpc.compare.triples_needed`)."""
    return triples_needed(1, cfg_bits) + triples_needed(1, frac_bits)


def trunc_draws(n: int, cfg: FixedPointConfig, mode: str = "exact") -> list:
    """The ordered ``(pool kind, key, count)`` list one online truncation
    of n elements consumes -- what :func:`trunc_via_service` draws and
    the planner prices.

    ``pair``: one pooled truncation pair per element.  ``wrap`` /
    ``exact``: the forward COTs of the ``bits``-bit wrap comparison
    (plus, exact mode, the ``frac``-bit borrow comparison), the bit
    triples of their AND trees, and one ring triple per correction bit
    for the B2A.
    """
    if mode == "pair":
        return [("tprc", (cfg.frac_bits,), n)]
    if mode not in ("wrap", "exact"):
        raise ParameterError(f"unknown truncation mode {mode!r}")
    widths = (cfg.bits, cfg.frac_bits) if mode == "exact" else (cfg.bits,)
    return [
        ("cot/fwd", (), n * sum(widths)),
        ("tri", (), sum(triples_needed(n, w) for w in widths)),
        ("rtri", (), n * len(widths)),
    ]


def trunc_online_bytes(n: int, cfg: FixedPointConfig, mode: str = "exact") -> int:
    """Exact online wire bytes (both parties) of one n-element truncation.

    ``pair``: one masked-share opening each.  ``wrap``/``exact``: the
    millionaires' comparison(s) plus one Beaver opening for the B2A of
    the correction bits (2 ring elements per multiplied element, each
    party).
    """
    if mode == "pair":
        return 2 * 8 * n
    if mode not in ("wrap", "exact"):
        raise ParameterError(f"unknown truncation mode {mode!r}")
    total = millionaire_bytes(n, cfg.bits)
    b2a = n
    if mode == "exact":
        total += millionaire_bytes(n, cfg.frac_bits)
        b2a = 2 * n
    return total + 2 * (2 * b2a) * 8


def trunc_preproc_bytes(n: int, cfg: FixedPointConfig) -> int:
    """Exact preprocessing wire bytes (both parties) of one n-pair
    ``generate_trunc_pairs`` batch: two millionaires' comparisons plus
    the Gilboa B2A half-messages (one bit + one masked ring element per
    correlation, 2n correlations)."""
    gilboa = _bits_msg(2 * n) + 2 * n * 8
    return (
        millionaire_bytes(n, cfg.bits)
        + millionaire_bytes(n, cfg.frac_bits)
        + gilboa
    )


def trunc_online_messages(cfg: FixedPointConfig, mode: str = "exact") -> int:
    """Exact message count (both parties) of one online truncation call.

    Multiplied by a transport's per-message framing overhead (e.g. a
    :class:`repro.runtime.mux.MuxChannel` tag header) this converts the
    raw byte predictors into framed per-tag byte predictions.
    """
    if mode == "pair":
        return 2
    if mode not in ("wrap", "exact"):
        raise ParameterError(f"unknown truncation mode {mode!r}")
    msgs = millionaire_messages(cfg.bits) + 2  # + the Beaver opening
    if mode == "exact":
        msgs += millionaire_messages(cfg.frac_bits)
    return msgs


def trunc_preproc_messages(cfg: FixedPointConfig) -> int:
    """Messages (both parties) of one ``generate_trunc_pairs`` batch."""
    return (
        millionaire_messages(cfg.bits)
        + millionaire_messages(cfg.frac_bits)
        + 2  # Gilboa: correction bits + masked payloads
    )


# ---------------------------------------------------------------------------
# Truncation pairs (preprocessing correlation)
# ---------------------------------------------------------------------------


@dataclass
class TruncPairs:
    """One party's shares of n truncation pairs: (r, r >> frac_bits).

    ``r`` sums (mod 2^bits) to a uniform mask, ``s`` to exactly
    ``r >> frac_bits`` -- the pair correction consumed by
    :func:`truncate_pair_online`.
    """

    r: np.ndarray
    s: np.ndarray
    bits: int
    frac_bits: int

    def __post_init__(self):
        mask = ring_mask_u64(self.bits)
        self.r = np.asarray(self.r, dtype=np.uint64) & mask
        self.s = np.asarray(self.s, dtype=np.uint64) & mask
        if self.r.shape != self.s.shape:
            raise ParameterError("trunc pair component lengths disagree")
        if not 1 <= self.frac_bits < self.bits:
            raise ParameterError("trunc pair needs 1 <= frac_bits < bits")

    def __len__(self) -> int:
        return self.r.shape[0]


def dealer_trunc_pairs(
    n: int, bits: int, frac_bits: int, rng: np.random.Generator
) -> tuple:
    """Trusted-dealer truncation pairs (tests / cost studies)."""
    mask = ring_mask_u64(bits)
    r = _rand_ring(rng, n, bits)
    s = r >> np.uint64(frac_bits)
    r0 = _rand_ring(rng, n, bits)
    s0 = _rand_ring(rng, n, bits)
    return (
        TruncPairs(r0, s0, bits, frac_bits),
        TruncPairs((r - r0) & mask, (s - s0) & mask, bits, frac_bits),
    )


def _b2a_gilboa(
    channel: Channel,
    pool: CotPool,
    bit_shares: np.ndarray,
    scales: np.ndarray,
    bits: int,
    party: int,
    ot_sender: int,
    tweak_base: int,
) -> np.ndarray:
    """Arithmetic shares of ``(b0 XOR b1) * scale`` from XOR bit shares.

    One Gilboa correlation per bit: the sender's correlated payload is
    ``(1 - 2*b_s) * scale`` and the receiver selects with its bit, so
    the outputs sum to ``b_r*(1 - 2*b_s)*scale``; the sender adds
    ``b_s*scale`` locally to complete ``(b_s + b_r - 2*b_s*b_r)*scale``.
    """
    mask = ring_mask_u64(bits)
    n = bit_shares.shape[0]
    tweaks = np.arange(tweak_base, tweak_base + n, dtype=np.uint64)
    b = bit_shares.astype(np.uint64)
    scales = np.asarray(scales, dtype=np.uint64)
    if party == ot_sender:
        corr = ((_U64_ONE - np.uint64(2) * b) * scales & mask).reshape(n, 1)
        share = gilboa_send(channel, pool.take_sender(n), corr, bits, tweaks)
        return (share.reshape(n) + b * scales) & mask
    got = gilboa_receive(channel, pool.take_receiver(n), b, 1, bits, tweaks)
    return got.reshape(n) & mask


def generate_trunc_pairs(
    channel: Channel,
    n: int,
    bits: int,
    frac_bits: int,
    pool: CotPool,
    triples: BitTriples,
    rng: np.random.Generator,
    party: int,
    tweak_base: int = 0,
) -> TruncPairs:
    """Two-party generation of n truncation pairs (preprocessing phase).

    Each party samples its ``r`` share privately; the shares of
    ``r >> f`` then differ from the locally shifted shares by the share
    wrap ``u = [r0 + r1 >= 2^bits]`` (worth ``2^(bits-f)``) and the low
    carry ``[l0 + l1 >= 2^f]`` (worth 1) -- both are millionaires'
    comparisons on *privately held* inputs (the DReLU carry shape),
    their XOR-shared outputs arithmetized with one Gilboa B2A each.
    Consumes ``trunc_pair_cots`` COTs (party 0 the COT sender) and
    ``trunc_pair_bit_triples`` bit triples per pair.
    """
    if party not in (0, 1):
        raise ParameterError("party must be 0 or 1")
    mask = ring_mask_u64(bits)
    low_mask = np.uint64((1 << frac_bits) - 1)
    r = _rand_ring(rng, n, bits)
    low = r & low_mask
    if party == 0:
        u = millionaire_p0(
            channel, mask - r, bits, pool, triples, rng, tweak_base=tweak_base
        )
        carry = millionaire_p0(
            channel, low_mask - low, frac_bits, pool, triples, rng,
            tweak_base=tweak_base + _CARRY_TWEAK,
        )
    else:
        u = millionaire_p1(channel, r, bits, pool, triples, tweak_base=tweak_base)
        carry = millionaire_p1(
            channel, low, frac_bits, pool, triples,
            tweak_base=tweak_base + _CARRY_TWEAK,
        )
    big = _U64_ONE << np.uint64(bits - frac_bits)
    scales = np.concatenate(
        [np.full(n, big, dtype=np.uint64), np.ones(n, dtype=np.uint64)]
    )
    arith = _b2a_gilboa(
        channel, pool, np.concatenate([u, carry]), scales, bits,
        party, ot_sender=0, tweak_base=tweak_base + _B2A_TWEAK,
    )
    s = ((r >> np.uint64(frac_bits)) - arith[:n] + arith[n:]) & mask
    return TruncPairs(r, s, bits, frac_bits)


# ---------------------------------------------------------------------------
# Online protocols
# ---------------------------------------------------------------------------


def _as_flat_shares(x_share: np.ndarray, mask: np.uint64) -> np.ndarray:
    x_share = np.asarray(x_share, dtype=np.uint64).reshape(-1)
    return x_share & mask


def truncate_pair_online(
    channel: Channel,
    x_share: np.ndarray,
    pairs: TruncPairs,
    cfg: FixedPointConfig,
    party: int,
) -> np.ndarray:
    """Probabilistic (pair-mode) truncation: one opening round, no OT.

    Party 0 biases by ``2^mag_bits`` so the masked value is a small
    non-negative integer, the parties open ``c = x~ + r`` (uniformly
    masked -- one ring message each), and the outputs
    ``(c >> f) - s - bias'`` sum to ``floor(x/2^f)`` or one more,
    except with probability ``2^(mag_bits + 1 - bits)`` (the mask-wrap
    event the headroom suppresses).
    """
    if cfg.mag_bits is None:
        raise ParameterError(
            "pair-mode truncation needs FixedPointConfig.mag_bits headroom"
        )
    if pairs.bits != cfg.bits or pairs.frac_bits != cfg.frac_bits:
        raise ProtocolError("truncation pairs do not match the fixed-point config")
    mask = cfg.mask
    x = _as_flat_shares(x_share, mask)
    if len(pairs) != x.shape[0]:
        raise ProtocolError("need exactly one truncation pair per element")
    y = x
    if party == 0:
        y = (x + (_U64_ONE << np.uint64(cfg.mag_bits))) & mask
    mine = (y + pairs.r) & mask
    if party == 0:
        channel.send_ring(mine)
        theirs = channel.recv_ring()
    else:
        theirs = channel.recv_ring()
        channel.send_ring(mine)
    if theirs.shape[0] != mine.shape[0]:
        raise ProtocolError("peer opening has the wrong length")
    c = (mine + theirs) & mask
    z = (np.uint64(0) - pairs.s) & mask
    if party == 0:
        bias = _U64_ONE << np.uint64(cfg.mag_bits - cfg.frac_bits)
        z = (z + (c >> np.uint64(cfg.frac_bits)) - bias) & mask
    return z


def truncate_shares(
    channel: Channel,
    x_share: np.ndarray,
    cfg: FixedPointConfig,
    party: int,
    pool: CotPool,
    triples: BitTriples,
    ring_triples: RingTriples,
    rng: np.random.Generator = None,
    exact: bool = True,
    tweak_base: int = 0,
) -> np.ndarray:
    """Wrap-fixed / exact truncation of additively shared ring values.

    Each party arithmetic-shifts its own share (after party 0 folds in
    the two's-complement bias), then the share-wrap bit
    ``t = [y0 + y1 >= 2^bits]`` is recovered with a millionaires'
    comparison on the private shares and subtracted (worth
    ``2^(bits-f)``).  With ``exact=True`` the low-part borrow
    ``[l0 + l1 >= 2^f]`` is fixed the same way and the result is
    bit-exact ``floor(x/2^f)`` for every ring value; with
    ``exact=False`` it is ``floor(x/2^f)`` or one less.  The correction
    bits are arithmetized with ring-triple Beaver products (no online
    OT beyond the comparisons).

    Args:
        pool: COT pool in the direction where party 0 is the sender.
        triples: Beaver bit triples for the comparisons' AND trees
            (consumed).
        ring_triples: mod-2^bits triples for B2A, one per correction
            bit; counts as :func:`trunc_draws` lists them.
        rng: party 0's comparison OT masks; defaults to a fresh
            OS-seeded generator -- these masks are one-time pads over
            party 0's private share bits, so they must never come from
            a seed the peer could predict.
    """
    mask = cfg.mask
    k, f = cfg.bits, cfg.frac_bits
    x = _as_flat_shares(x_share, mask)
    n = x.shape[0]
    if ring_triples.bits != k:
        raise ProtocolError(
            f"B2A ring triples are mod 2^{ring_triples.bits}, need 2^{k}"
        )
    rng = rng if rng is not None else np.random.default_rng()
    y = x
    if party == 0:
        y = (x + (_U64_ONE << np.uint64(k - 1))) & mask
    low_mask = np.uint64((1 << f) - 1)
    low = y & low_mask
    if party == 0:
        t_bit = millionaire_p0(
            channel, mask - y, k, pool, triples, rng, tweak_base=tweak_base
        )
    else:
        t_bit = millionaire_p1(channel, y, k, pool, triples, tweak_base=tweak_base)
    if exact:
        if party == 0:
            c_bit = millionaire_p0(
                channel, low_mask - low, f, pool, triples, rng,
                tweak_base=tweak_base + _CARRY_TWEAK,
            )
        else:
            c_bit = millionaire_p1(
                channel, low, f, pool, triples,
                tweak_base=tweak_base + _CARRY_TWEAK,
            )
        bits_mine = np.concatenate([t_bit, c_bit])
    else:
        bits_mine = t_bit
    # B2A: each party contributes its XOR share as one arithmetic
    # operand of a Beaver product; b = b0 + b1 - 2*b0*b1.
    b_vals = bits_mine.astype(np.uint64)
    zeros = np.zeros_like(b_vals)
    if party == 0:
        prod = mul_shared(channel, ring_triples, b_vals, zeros, party)
    else:
        prod = mul_shared(channel, ring_triples, zeros, b_vals, party)
    arith = (b_vals - np.uint64(2) * prod) & mask
    big = _U64_ONE << np.uint64(k - f)
    z = ((y >> np.uint64(f)) - arith[:n] * big) & mask
    if exact:
        z = (z + arith[n:]) & mask
    if party == 0:
        z = (z - (_U64_ONE << np.uint64(k - 1 - f))) & mask
    return z


# ---------------------------------------------------------------------------
# Service integration
# ---------------------------------------------------------------------------


def truncate(
    channel: Channel,
    x_share: np.ndarray,
    cfg: FixedPointConfig,
    party: int,
    material: list,
    mode: str = "exact",
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Run the ``mode`` truncation protocol on ``material``: the batches
    :func:`trunc_draws` names for the same ``(n, cfg, mode)``, in its
    order (the one place a mode picks its protocol)."""
    if mode == "pair":
        (pairs,) = material
        return truncate_pair_online(channel, x_share, pairs, cfg, party)
    cots, triples, ring_triples = material
    return truncate_shares(
        channel, x_share, cfg, party, CotPool.of(cots), triples, ring_triples,
        rng=rng, exact=(mode == "exact"),
    )


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
    mode: str = "exact",
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Truncation drawing every correlation from a provisioning session.

    ``mode`` is ``"pair"`` (pooled truncation pairs, one online round),
    ``"wrap"`` (wrap-fixed, within one ULP) or ``"exact"`` (bit-exact).
    Both parties call in lockstep with the same mode; the session draws
    :func:`trunc_draws` in one allocation message.
    """
    require_service_ring(session, cfg)
    x = np.asarray(x_share, dtype=np.uint64).reshape(-1)
    material, _ = session.draw(trunc_draws(x.shape[0], cfg, mode))
    return truncate(session.channel, x, cfg, session.party, material, mode, rng)
