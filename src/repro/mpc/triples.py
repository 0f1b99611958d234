"""Beaver triples from OT correlations: bits, ring elements, matrices.

A bit triple gives the parties XOR shares of bits (a, b, c) with
``c = a AND b``; one triple evaluates one AND gate on shared bits
(GMW).  Each triple needs the two cross products ``a0*b1`` and
``a1*b0`` -- one chosen-message OT in each direction, which is exactly
the role-switching workload Ironman's unified architecture serves
(Section 5.2).

Arithmetic (mod 2^k) triples use the same COT substrate through
**Gilboa multiplication**: the cross product ``x * y`` of two privately
held ring elements decomposes over the bits of x -- for bit position t
the holder of y (the OT *sender*) offers the correlated pair
``(r_t, r_t + y*2^t)`` and the holder of x selects with its t-th bit.
On a COT correlation the chosen-message pair collapses to *half a
message*: the receiver derandomizes with one correction bit and the
sender ships a single masked ring element per correlation
(:func:`gilboa_send` / :func:`gilboa_receive`), the per-COT online
payload the analytical models charge.  The masks are ``bits``-wide
lanes of the COT block's CRHF output (:func:`_expand_ring_pads`), so on
a 16-bit ring one AES block pads eight payload slots.  Ring triples
consume ``bits`` COTs per element per direction; matrix triples batch
whole rows/columns of the peer operand as the correlated payload, which
is how one secure MatMul costs ``(m*k + k*n) * bits`` COTs rather than
``m*k*n`` (see :mod:`repro.mpc.matmul`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto import blocks
from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.errors import ParameterError, ProtocolError
from repro.ot.channel import Channel
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot


@dataclass
class BitTriples:
    """One party's shares of n bit triples (a, b, c = a AND b)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.uint8) & 1
        self.b = np.asarray(self.b, dtype=np.uint8) & 1
        self.c = np.asarray(self.c, dtype=np.uint8) & 1
        if not (self.a.shape == self.b.shape == self.c.shape):
            raise ParameterError("triple component lengths disagree")

    def __len__(self) -> int:
        return self.a.shape[0]

    def take(self, n: int) -> "BitTriples":
        """Split off the first n triples (consuming them)."""
        if n > len(self):
            raise ParameterError(f"only {len(self)} triples left, need {n}")
        head = BitTriples(self.a[:n], self.b[:n], self.c[:n])
        self.a, self.b, self.c = self.a[n:], self.b[n:], self.c[n:]
        return head


def _bits_to_blocks(bits_vec: np.ndarray) -> np.ndarray:
    out = blocks.zeros(bits_vec.shape[0])
    out[:, 0] = bits_vec.astype(np.uint64)
    return out


def _cross_product_sender(channel, pool: CotPool, my_bits, rng, tweak) -> np.ndarray:
    """OT-sender half of a cross term: returns share r of my_bits * theirs."""
    n = my_bits.shape[0]
    r = rng.integers(0, 2, n).astype(np.uint8)
    m0 = _bits_to_blocks(r)
    m1 = _bits_to_blocks(r ^ my_bits)
    ot_send_from_cot(channel, pool.take_sender(n), m0, m1, tweak_base=tweak)
    return r


def _cross_product_receiver(channel, pool: CotPool, my_bits, tweak) -> np.ndarray:
    """OT-receiver half: returns share (r XOR a*b) of the cross term."""
    got = ot_receive_from_cot(channel, pool.take_receiver(my_bits.shape[0]), my_bits, tweak_base=tweak)
    return (got[:, 0] & np.uint64(1)).astype(np.uint8)


def generate_bit_triples(
    channel: Channel,
    n: int,
    send_pool: CotPool,
    recv_pool: CotPool,
    rng: np.random.Generator,
    party: int,
    tweak_base: int = 0,
) -> BitTriples:
    """Generate n bit triples; both parties call this symmetrically.

    Args:
        send_pool: COT pool in which this party is the *sender* (used
            for the cross term where it offers messages).
        recv_pool: COT pool in which this party is the *receiver*.
        party: 0 or 1; fixes the order of the two OT directions so the
            parties stay in lockstep.
    """
    a = rng.integers(0, 2, n).astype(np.uint8)
    b = rng.integers(0, 2, n).astype(np.uint8)
    if party == 0:
        # direction 1: P0 sends a0, P1 selects with b1.
        r_mine = _cross_product_sender(channel, send_pool, a, rng, tweak_base)
        # direction 2: P1 sends a1, P0 selects with b0.
        t_mine = _cross_product_receiver(channel, recv_pool, b, tweak_base + n)
    elif party == 1:
        t_mine = _cross_product_receiver(channel, recv_pool, b, tweak_base)
        r_mine = _cross_product_sender(channel, send_pool, a, rng, tweak_base + n)
    else:
        raise ParameterError("party must be 0 or 1")
    # c_i = a_i*b_i (local) XOR own shares of both cross terms.
    c = (a & b) ^ r_mine ^ t_mine
    return BitTriples(a, b, c)


# ---------------------------------------------------------------------------
# Arithmetic (mod 2^k) triples via Gilboa multiplication
# ---------------------------------------------------------------------------

#: Tweak stride separating the hashes of one COT (a Gilboa payload wider
#: than one hash output's worth of ring pads hashes the block repeatedly).
_PAD_STRIDE = np.uint64(1) << np.uint64(48)


def ring_mask_u64(bits: int) -> np.uint64:
    """The mod-2^bits reduction mask as a uint64 scalar."""
    if bits < 1 or bits > 64:
        raise ParameterError("ring width must be in [1, 64] bits")
    return np.uint64((1 << bits) - 1)


def _expand_ring_pads(
    x: np.ndarray, tweaks: np.ndarray, width: int, bits: int, crhf: Crhf
) -> np.ndarray:
    """Stretch one block per COT into ``width`` mod-2^bits ring pads.

    Every 128-bit hash output is cut into the narrowest little-endian
    lanes that hold ``bits`` (8 / 16 / 32 / 64 bits wide: 16 / 8 / 4 / 2
    pads per hash), so a COT costs ``ceil(width / lanes)`` AES blocks.
    Disjoint slices of one CRHF output are as pseudorandom as the
    truncation to ``bits`` itself.  Pad derivation is part of the
    protocol: all four ``gilboa_*`` functions, on both parties, go
    through here.
    """
    lane_bytes = next(b for b in (1, 2, 4, 8) if 8 * b >= bits)
    lanes = blocks.BLOCK_BYTES // lane_bytes
    out = np.empty((x.shape[0], width), dtype=np.uint64)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for j in range(-(-width // lanes)):
        h = crhf.hash_tweaked(x, tweaks + np.uint64(j) * _PAD_STRIDE)
        cols = out[:, j * lanes : (j + 1) * lanes]  # the last hash may be cut short
        cols[...] = h.view(f"<u{lane_bytes}")[:, : cols.shape[1]]
    out &= ring_mask_u64(bits)
    return out


def gilboa_send(
    channel: Channel,
    cots: CotSenderBatch,
    corr: np.ndarray,
    bits: int,
    tweaks: np.ndarray,
    crhf: Crhf = DEFAULT_CRHF,
) -> np.ndarray:
    """Correlated-OT sender: additive share of ``choice_i * corr[i]``.

    For each correlation i the receiver ends with ``pad_i +
    choice_i*corr[i]`` and this side returns ``-pad_i``, so the two
    outputs are additive shares of the selected correlated value.  Wire
    cost is the Gilboa half-message: the receiver's one derandomization
    bit plus ONE masked ring element per payload slot (not the two
    full messages of a chosen-message OT).

    Args:
        corr: (n, width) uint64 ring correlations (already reduced).
        bits: ring width (mod 2^bits).
        tweaks: (n,) per-COT hash tweaks (absolute COT indices).
    """
    corr = np.ascontiguousarray(corr, dtype=np.uint64)
    if corr.ndim != 2 or corr.shape[0] != len(cots):
        raise ProtocolError("corr must be (n_cots, width)")
    mask = ring_mask_u64(bits)
    d = channel.recv_bits()
    if d.shape[0] != len(cots):
        raise ProtocolError("correction bit vector has the wrong length")
    width = corr.shape[1]
    # Pad for logical choice j is expand(z XOR (j XOR d) * Delta).
    pad0 = _expand_ring_pads(
        blocks.xor(cots.z, blocks.mul_bit(cots.delta, d)), tweaks, width, bits, crhf
    )
    pad1 = _expand_ring_pads(
        blocks.xor(cots.z, blocks.mul_bit(cots.delta, d ^ 1)), tweaks, width, bits, crhf
    )
    channel.send_ring((corr + pad0 + pad1) & mask)
    return (np.uint64(0) - pad0) & mask


def gilboa_receive(
    channel: Channel,
    cots: CotReceiverBatch,
    choices: np.ndarray,
    width: int,
    bits: int,
    tweaks: np.ndarray,
    crhf: Crhf = DEFAULT_CRHF,
) -> np.ndarray:
    """Correlated-OT receiver: additive share of ``choice_i * corr[i]``."""
    choices = np.asarray(choices, dtype=np.uint8) & 1
    if choices.shape[0] != len(cots):
        raise ProtocolError("COT batch and choice vector must have equal length")
    mask = ring_mask_u64(bits)
    channel.send_bits(cots.x ^ choices)
    pad_mine = _expand_ring_pads(cots.y, tweaks, width, bits, crhf)
    c = channel.recv_ring().reshape(choices.shape[0], width)
    return np.where(choices[:, None].astype(bool), (c - pad_mine) & mask, pad_mine)


def gilboa_send_stream(
    channel: Channel,
    cots: CotSenderBatch,
    corr_fn,
    width: int,
    bits: int,
    tweaks: np.ndarray,
    chunk_rows: int,
    crhf: Crhf = DEFAULT_CRHF,
):
    """Chunked :func:`gilboa_send`: yields ``(start, share_chunk)``.

    The correction matrix is built row block by row block through
    ``corr_fn(start, stop) -> (stop-start, width)`` and shipped as one
    ring message per block, so neither the correlations nor the pad
    arrays are ever materialized at full ``(n_cots, width)`` size --
    the caller reduces each yielded share chunk immediately.  Ring
    payloads carry no per-message framing, so total wire bytes are
    IDENTICAL to the one-shot path (only the message count changes),
    and per-row pads make the yielded values bit-identical too.  Both
    parties must agree on ``chunk_rows``.
    """
    mask = ring_mask_u64(bits)
    d = channel.recv_bits()
    if d.shape[0] != len(cots):
        raise ProtocolError("correction bit vector has the wrong length")
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for start in range(0, len(cots), chunk_rows):
        stop = min(start + chunk_rows, len(cots))
        corr = np.ascontiguousarray(corr_fn(start, stop), dtype=np.uint64)
        if corr.shape != (stop - start, width):
            raise ProtocolError("corr_fn returned a wrongly shaped chunk")
        z = cots.z[start:stop]
        d_chunk = d[start:stop]
        tw = tweaks[start:stop]
        pad0 = _expand_ring_pads(
            blocks.xor(z, blocks.mul_bit(cots.delta, d_chunk)), tw, width, bits, crhf
        )
        pad1 = _expand_ring_pads(
            blocks.xor(z, blocks.mul_bit(cots.delta, d_chunk ^ 1)), tw, width, bits, crhf
        )
        channel.send_ring((corr + pad0 + pad1) & mask)
        yield start, (np.uint64(0) - pad0) & mask


def gilboa_receive_stream(
    channel: Channel,
    cots: CotReceiverBatch,
    choices: np.ndarray,
    width: int,
    bits: int,
    tweaks: np.ndarray,
    chunk_rows: int,
    crhf: Crhf = DEFAULT_CRHF,
):
    """Chunked :func:`gilboa_receive`: yields ``(start, share_chunk)``.

    Mirror of :func:`gilboa_send_stream`: the derandomization bits go
    out in one message (as in the one-shot path), then each correction
    row block is received and unpadded separately so the full
    ``(n_cots, width)`` result never exists in memory at once.
    """
    choices = np.asarray(choices, dtype=np.uint8) & 1
    if choices.shape[0] != len(cots):
        raise ProtocolError("COT batch and choice vector must have equal length")
    mask = ring_mask_u64(bits)
    channel.send_bits(cots.x ^ choices)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for start in range(0, len(cots), chunk_rows):
        stop = min(start + chunk_rows, len(cots))
        pad_mine = _expand_ring_pads(
            cots.y[start:stop], tweaks[start:stop], width, bits, crhf
        )
        c = channel.recv_ring().reshape(stop - start, width)
        picked = choices[start:stop, None].astype(bool)
        yield start, np.where(picked, (c - pad_mine) & mask, pad_mine)


@dataclass
class RingTriples:
    """One party's additive shares of n triples (a, b, c = a*b) mod 2^bits."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    bits: int = 32

    def __post_init__(self):
        mask = ring_mask_u64(self.bits)
        self.a = np.asarray(self.a, dtype=np.uint64) & mask
        self.b = np.asarray(self.b, dtype=np.uint64) & mask
        self.c = np.asarray(self.c, dtype=np.uint64) & mask
        if not (self.a.shape == self.b.shape == self.c.shape):
            raise ParameterError("triple component lengths disagree")

    def __len__(self) -> int:
        return self.a.shape[0]

    def take(self, n: int) -> "RingTriples":
        """Split off the first n triples (consuming them)."""
        if n > len(self):
            raise ParameterError(f"only {len(self)} ring triples left, need {n}")
        head = RingTriples(self.a[:n], self.b[:n], self.c[:n], self.bits)
        self.a, self.b, self.c = self.a[n:], self.b[n:], self.c[n:]
        return head


@dataclass
class MatrixTriples:
    """One party's shares of a matrix Beaver triple: C = A @ B mod 2^bits.

    ``a`` is (m, k), ``b`` is (k, n), ``c`` is (m, n); one triple
    preprocesses one secure MatMul of those dimensions (the online
    phase only opens masked operands, see :mod:`repro.mpc.matmul`).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    bits: int = 32

    def __post_init__(self):
        mask = ring_mask_u64(self.bits)
        self.a = np.asarray(self.a, dtype=np.uint64) & mask
        self.b = np.asarray(self.b, dtype=np.uint64) & mask
        self.c = np.asarray(self.c, dtype=np.uint64) & mask
        m, k = self.a.shape
        k2, n = self.b.shape
        if k != k2 or self.c.shape != (m, n):
            raise ParameterError("matrix triple shapes are inconsistent")

    @property
    def dims(self) -> tuple:
        return (self.a.shape[0], self.a.shape[1], self.b.shape[1])


def _bit_decompose(values: np.ndarray, bits: int) -> np.ndarray:
    """Flatten ring values into per-bit OT choices, (n*bits,) uint8."""
    values = np.asarray(values, dtype=np.uint64).reshape(-1)
    positions = np.arange(bits, dtype=np.uint64)
    return ((values[:, None] >> positions[None, :]) & np.uint64(1)).astype(
        np.uint8
    ).reshape(-1)


def _gilboa_cross_send(channel, pool: CotPool, payload, bits, tweak_base) -> np.ndarray:
    """Sender half of a scalar cross term: share of (their a) * (my payload)."""
    payload = np.asarray(payload, dtype=np.uint64)
    n = payload.shape[0]
    mask = ring_mask_u64(bits)
    shifts = np.uint64(1) << np.arange(bits, dtype=np.uint64)
    corr = ((payload[:, None] * shifts[None, :]) & mask).reshape(n * bits, 1)
    tweaks = np.arange(tweak_base, tweak_base + n * bits, dtype=np.uint64)
    s = gilboa_send(channel, pool.take_sender(n * bits), corr, bits, tweaks)
    return s.reshape(n, bits).sum(axis=1, dtype=np.uint64) & mask


def _gilboa_cross_receive(channel, pool: CotPool, my_vals, bits, tweak_base) -> np.ndarray:
    """Receiver half: share of (my value) * (their payload)."""
    my_vals = np.asarray(my_vals, dtype=np.uint64)
    n = my_vals.shape[0]
    mask = ring_mask_u64(bits)
    choices = _bit_decompose(my_vals, bits)
    tweaks = np.arange(tweak_base, tweak_base + n * bits, dtype=np.uint64)
    t = gilboa_receive(channel, pool.take_receiver(n * bits), choices, 1, bits, tweaks)
    return t.reshape(n, bits).sum(axis=1, dtype=np.uint64) & mask


def ring_triple_cots(n: int, bits: int) -> int:
    """COTs n ring triples consume in EACH direction (bits per element)."""
    return n * bits


def generate_ring_triples(
    channel: Channel,
    n: int,
    bits: int,
    send_pool: CotPool,
    recv_pool: CotPool,
    rng: np.random.Generator,
    party: int,
    send_tweak_base: int = 0,
    recv_tweak_base: int = 0,
) -> RingTriples:
    """Generate n mod-2^bits Beaver triples; both parties call symmetrically.

    Cross term 1 is ``a0*b1`` (P0 selects with its bits of a, P1 ships
    payloads of b) and runs over the direction where P1 is the COT
    sender; cross term 2 is ``a1*b0`` the other way around -- the same
    role-switching shape as bit triples, ``n*bits`` COTs per direction.

    Tweak bases must equal the absolute pool offsets of the consumed
    ranges (per direction) so both parties hash with matching tweaks.
    """
    mask = ring_mask_u64(bits)
    a = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    b = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    if party == 0:
        # term 1: choices from a0, payload b1 (P0 receives).
        t1 = _gilboa_cross_receive(channel, recv_pool, a, bits, recv_tweak_base)
        # term 2: choices from a1, payload b0 (P0 sends).
        t2 = _gilboa_cross_send(channel, send_pool, b, bits, send_tweak_base)
    elif party == 1:
        t1 = _gilboa_cross_send(channel, send_pool, b, bits, send_tweak_base)
        t2 = _gilboa_cross_receive(channel, recv_pool, a, bits, recv_tweak_base)
    else:
        raise ParameterError("party must be 0 or 1")
    c = (a * b + t1 + t2) & mask
    return RingTriples(a, b, c, bits)


def dealer_ring_triples(n: int, bits: int, rng: np.random.Generator) -> tuple:
    """Trusted-dealer ring triples: (party0 shares, party1 shares)."""
    mask = ring_mask_u64(bits)
    a = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    b = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    c = (a * b) & mask
    a0 = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    b0 = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    c0 = rng.integers(0, 1 << bits, n, dtype=np.uint64)
    return (
        RingTriples(a0, b0, c0, bits),
        RingTriples((a - a0) & mask, (b - b0) & mask, (c - c0) & mask, bits),
    )


def dealer_matrix_triples(
    m: int, k: int, n: int, bits: int, rng: np.random.Generator
) -> tuple:
    """Trusted-dealer matrix triple shares (for tests and cost studies)."""
    mask = ring_mask_u64(bits)
    a = rng.integers(0, 1 << bits, (m, k), dtype=np.uint64)
    b = rng.integers(0, 1 << bits, (k, n), dtype=np.uint64)
    c = (a @ b) & mask
    a0 = rng.integers(0, 1 << bits, (m, k), dtype=np.uint64)
    b0 = rng.integers(0, 1 << bits, (k, n), dtype=np.uint64)
    c0 = rng.integers(0, 1 << bits, (m, n), dtype=np.uint64)
    return (
        MatrixTriples(a0, b0, c0, bits),
        MatrixTriples((a - a0) & mask, (b - b0) & mask, (c - c0) & mask, bits),
    )


def mul_shared(
    channel: Channel,
    triples: RingTriples,
    x: np.ndarray,
    y: np.ndarray,
    party: int,
) -> np.ndarray:
    """Beaver multiplication of additively shared ring vectors.

    Both parties open ``d = x - a`` and ``e = y - b`` (one message
    each) and return this party's share of ``x * y`` mod 2^bits.
    """
    mask = ring_mask_u64(triples.bits)
    x = np.asarray(x, dtype=np.uint64) & mask
    y = np.asarray(y, dtype=np.uint64) & mask
    n = x.shape[0]
    batch = triples.take(n)
    d_share = (x - batch.a) & mask
    e_share = (y - batch.b) & mask
    mine = np.concatenate([d_share, e_share])
    if party == 0:
        channel.send_ring(mine)
        theirs = channel.recv_ring()
    else:
        theirs = channel.recv_ring()
        channel.send_ring(mine)
    d = (d_share + theirs[:n]) & mask
    e = (e_share + theirs[n:]) & mask
    share = (batch.c + d * batch.b + e * batch.a) & mask
    if party == 0:
        share = (share + d * e) & mask
    return share


def and_shared(
    channel: Channel,
    triples: BitTriples,
    x: np.ndarray,
    y: np.ndarray,
    party: int,
) -> np.ndarray:
    """GMW AND on shared bit vectors using pre-generated triples.

    Both parties call this with their shares; openings of d = x XOR a
    and e = y XOR b cross the channel; returns this party's share of
    ``x AND y``.
    """
    x = np.asarray(x, dtype=np.uint8) & 1
    y = np.asarray(y, dtype=np.uint8) & 1
    n = x.shape[0]
    batch = triples.take(n)
    d_share = x ^ batch.a
    e_share = y ^ batch.b
    if party == 0:
        channel.send_bits(np.concatenate([d_share, e_share]))
        theirs = channel.recv_bits()
    else:
        theirs = channel.recv_bits()
        channel.send_bits(np.concatenate([d_share, e_share]))
    d = d_share ^ theirs[:n]
    e = e_share ^ theirs[n:]
    share = batch.c ^ (d & batch.b) ^ (e & batch.a)
    if party == 0:
        share ^= d & e
    return share
