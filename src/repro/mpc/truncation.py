"""Secure fixed-point truncation on additive mod-2^k shares.

Quantized inference multiplies scale-2^f fixed-point operands, so every
product carries scale 2^(2f); without a secure rescaling step the scale
doubles at every linear layer and a multi-layer network overflows the
ring (the reason PR 3's MLP had to budget magnitudes by hand).  This
module supplies the missing primitive in the two shapes PPML frameworks
use, both driven by one :class:`FixedPointConfig` and both built on ONE
shift protocol (:func:`_shift_shares`): on a shared ``y = y0 + y1 mod
2^bits`` each party shifts its own share, the share wrap
``[y0 + y1 >= 2^bits]`` and the low borrow ``[l0 + l1 >= 2^f]`` come
from two millionaires' comparisons on the *private* shares (the DReLU
carry shape, :mod:`repro.mpc.compare`), and one Gilboa B2A (one COT per
bit) arithmetizes them: the outputs sum to exactly ``floor(y / 2^f)``.

* **Pair mode** (:func:`truncate_pair_online`) -- the ABY3-style
  probabilistic truncation.  Preprocessing provides a **truncation
  pair** -- an exact truncation of a random mask, paid ahead of time:
  additive shares of a uniform ``r`` and of ``r >> f``
  (:func:`generate_trunc_pairs`, pooled by the runtime's
  ``TruncPairPool`` under the ``TPRC`` opcode).  Online, the parties
  open ``c = x + r`` (one ring element each -- a single round, no OT)
  and output ``(c >> f) - [r >> f]``.  Requires ``mag_bits`` headroom:
  with ``|x| < 2^mag_bits`` the result is ``floor(x / 2^f)`` or one
  more, except with probability ``2^(mag_bits + 1 - bits)``.
* **Exact mode** (:func:`truncate_shares`) -- the shift protocol run
  online on ``x`` itself (party 0 folds in the two's-complement bias):
  bit-exact ``floor(x / 2^f)`` for EVERY ring value and share split, no
  headroom needed, which is what lets a whole quantized network be
  equality-tested against a plaintext fixed-point oracle.  It consumes
  exactly the correlations one truncation pair costs.

Both modes consume only pooled correlations (trunc pairs, or comparison
COTs and bit triples), so truncation slots into the
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
from repro.mpc.triples import BitTriples, gilboa_receive, gilboa_send, ring_mask_u64
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
    makes probabilistic truncation safe.  Exact truncation does not
    need it.
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
    """Forward-direction COTs one run of the shift protocol consumes per
    element (one truncation pair, or one exact online truncation): a
    ``bits``-bit and a ``frac``-bit millionaires' comparison (one COT per
    level) plus 2 Gilboa B2A correlations."""
    return cfg_bits + frac_bits + 2


def trunc_pair_bit_triples(cfg_bits: int, frac_bits: int) -> int:
    """Bit triples the shift protocol consumes per element: its two
    comparisons' AND trees (:func:`repro.mpc.compare.triples_needed`)."""
    return triples_needed(1, cfg_bits) + triples_needed(1, frac_bits)


def _require_exact(mode: str) -> None:
    if mode != "exact":
        raise ParameterError(f"unknown truncation mode {mode!r}")


def trunc_draws(n: int, cfg: FixedPointConfig, mode: str = "exact") -> list:
    """The ordered ``(pool kind, key, count)`` list one online truncation
    of n elements consumes -- what :func:`trunc_via_service` draws and
    the planner prices.

    ``pair``: one pooled truncation pair per element.  ``exact``: what n
    truncation pairs cost to make -- the shift protocol's forward COTs
    and the bit triples of its comparisons' AND trees.
    """
    if mode == "pair":
        return [("tprc", (cfg.frac_bits,), n)]
    _require_exact(mode)
    return [
        ("cot/fwd", (), n * trunc_pair_cots(cfg.bits, cfg.frac_bits)),
        ("tri", (), n * trunc_pair_bit_triples(cfg.bits, cfg.frac_bits)),
    ]


def trunc_online_bytes(n: int, cfg: FixedPointConfig, mode: str = "exact") -> int:
    """Exact online wire bytes (both parties) of one n-element truncation.

    ``pair``: one masked-share opening each.  ``exact``: the shift
    protocol, byte for byte what an n-pair batch costs
    (:func:`trunc_preproc_bytes`).
    """
    if mode == "pair":
        return 2 * 8 * n
    _require_exact(mode)
    return trunc_preproc_bytes(n, cfg)


def trunc_preproc_bytes(n: int, cfg: FixedPointConfig) -> int:
    """Exact wire bytes (both parties) of one n-element run of the shift
    protocol (a ``generate_trunc_pairs`` batch or an exact online
    truncation): two millionaires' comparisons plus the Gilboa B2A
    half-messages (one bit + one masked ring element per correlation,
    2n correlations)."""
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
    _require_exact(mode)
    return trunc_preproc_messages(cfg)


def trunc_preproc_messages(cfg: FixedPointConfig) -> int:
    """Messages (both parties) of one run of the shift protocol."""
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
    2^bits`` (the one shift protocol behind both truncation modes).

    The locally shifted shares ``y_p >> f`` differ from the shares of
    ``y >> f`` by the share wrap ``[y0 + y1 >= 2^bits]`` (worth
    ``-2^(bits-f)``) and the low borrow ``[l0 + l1 >= 2^f]`` (worth 1) --
    both millionaires' comparisons on *privately held* inputs (the DReLU
    carry shape), their XOR-shared outputs arithmetized with one Gilboa
    B2A.  Party 0 is the COT sender throughout; consumes
    :func:`trunc_pair_cots` COTs and :func:`trunc_pair_bit_triples` bit
    triples per element.
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

    Each party samples its ``r`` share privately, then the shift
    protocol (:func:`_shift_shares`) turns the shares of ``r`` into
    shares of exactly ``r >> f``.  Consumes ``trunc_pair_cots`` COTs
    (party 0 the COT sender) and ``trunc_pair_bit_triples`` bit triples
    per pair.
    """
    if party not in (0, 1):
        raise ParameterError("party must be 0 or 1")
    r = _rand_ring(rng, n, bits)
    s = _shift_shares(
        channel, r, bits, frac_bits, pool, triples, rng, party, tweak_base
    )
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
    y = _as_flat_shares(x_share, mask)
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
    cots, triples = material
    return truncate_shares(
        channel, x_share, cfg, party, CotPool.of(cots), triples, rng=rng
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

    ``mode`` is ``"pair"`` (pooled truncation pairs, one online round)
    or ``"exact"`` (bit-exact).
    Both parties call in lockstep with the same mode; the session draws
    :func:`trunc_draws` in one allocation message.
    """
    require_service_ring(session, cfg)
    x = np.asarray(x_share, dtype=np.uint64).reshape(-1)
    material, _ = session.draw(trunc_draws(x.shape[0], cfg, mode))
    return truncate(session.channel, x, cfg, session.party, material, mode, rng)
