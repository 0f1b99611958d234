"""Beaver triples from OT correlations: bits and matrices.

A bit triple gives the parties XOR shares of bits (a, b, c) with
``c = a AND b``; one triple evaluates one AND gate on shared bits
(GMW).  Each triple needs the two cross products ``a0*b1`` and
``a1*b0`` -- one COT in each direction, which is exactly the
role-switching workload Ironman's unified architecture serves (Section
5.2).  A COT is already a random OT once hashed (the paper's Figure 2
COT -> ROT step), so the cross products cost no messages at all
(:func:`generate_bit_triples`, the random-OT triples of ABY).

Arithmetic (mod 2^k) products use the same COT substrate through
**Gilboa multiplication**: the cross product ``x * y`` of two privately
held ring elements decomposes over the bits of x -- for bit position t
the holder of y (the OT *sender*) offers the correlated pair
``(r_t, r_t + y*2^t)`` and the holder of x selects with its t-th bit.
On a COT correlation the chosen-message pair collapses to *half a
message*: the receiver derandomizes with one correction bit and the
sender ships one masked ``bits``-wide lane per payload slot
(:func:`gilboa_send` / :func:`gilboa_receive`), the per-COT online
payload the analytical models charge.  The masks are lanes of the same
width cut from the COT block's CRHF output (:func:`_expand_ring_pads`),
so on a 16-bit ring one AES block pads eight payload slots and the
wire carries 2 bytes per slot.  Matrix triples batch whole
rows/columns of the peer operand as the correlated payload, which is
how one secure MatMul costs ``(m*k + k*n) * bits`` COTs rather than
``m*k*n`` (see :mod:`repro.mpc.matmul`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto import blocks
from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.errors import ParameterError, ProtocolError
from repro.ot.channel import Channel, lane_bytes
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch

# Unused here but bound: benchmarks/ledger/spans.py patches these names
# in this module.
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot  # noqa: F401


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


def generate_bit_triples(
    n: int,
    send_pool: CotPool,
    recv_pool: CotPool,
    party: int,
    tweak_base: int = 0,
    crhf: Crhf = DEFAULT_CRHF,
) -> BitTriples:
    """Generate n bit triples locally; both parties call this on their
    halves of the same two COT ranges.  Nothing crosses the wire.

    In the direction where this party sends (COT ``(z, z XOR Delta)``)
    it takes ``u = lsb H(z)`` and ``a = u XOR lsb H(z XOR Delta)``; in
    the one where it receives (``(x, y)``) it takes ``b = x`` and
    ``v = lsb H(y)``.  The peer's v on this party's COT is ``u XOR a*b'``,
    so ``u XOR v'`` shares one cross product, and ``c = a*b XOR u XOR v``
    shares ``(a XOR a')(b XOR b')``.

    Args:
        send_pool: COT pool in which this party is the *sender*.
        recv_pool: COT pool in which this party is the *receiver*.
        party: 0 or 1; party 0 sends forward, whose COTs take tweaks
            ``tweak_base + i``, the reverse ones ``tweak_base + n + i``.
    """
    if party not in (0, 1):
        raise ParameterError("party must be 0 or 1")
    sent, received = send_pool.take_sender(n), recv_pool.take_receiver(n)
    fwd = np.arange(tweak_base, tweak_base + n, dtype=np.uint64)
    rev = fwd + np.uint64(n)
    send_tweaks, recv_tweaks = (fwd, rev) if party == 0 else (rev, fwd)
    h = crhf.hash_tweaked(
        np.concatenate([sent.z, blocks.xor(sent.z, sent.delta), received.y]),
        np.concatenate([send_tweaks, send_tweaks, recv_tweaks]),
    )
    lsb = (h[:, 0] & np.uint64(1)).astype(np.uint8)
    u, v = lsb[:n], lsb[2 * n :]
    a = u ^ lsb[n : 2 * n]
    b = received.x.astype(np.uint8)
    return BitTriples(a, b, (a & b) ^ u ^ v)


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

    Every 128-bit hash output is cut into wire-width little-endian
    lanes (:func:`repro.ot.channel.lane_bytes`: 16 / 8 / 4 / 2 pads per
    hash), so a COT costs ``ceil(width / lanes)`` AES blocks.
    Disjoint slices of one CRHF output are as pseudorandom as the
    truncation to ``bits`` itself.  Pad derivation is part of the
    protocol: both ``gilboa_*`` functions, on both parties, go through
    here.
    """
    lane = lane_bytes(bits)
    lanes = blocks.BLOCK_BYTES // lane
    out = np.empty((x.shape[0], width), dtype=np.uint64)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for j in range(-(-width // lanes)):
        h = crhf.hash_tweaked(x, tweaks + np.uint64(j) * _PAD_STRIDE)
        cols = out[:, j * lanes : (j + 1) * lanes]  # the last hash may be cut short
        cols[...] = h.view(f"<u{lane}")[:, : cols.shape[1]]
    out &= ring_mask_u64(bits)
    return out


def gilboa_send(
    channel: Channel,
    cots: CotSenderBatch,
    corr_fn,
    width: int,
    bits: int,
    tweaks: np.ndarray,
    chunk_rows: int,
    crhf: Crhf = DEFAULT_CRHF,
):
    """Correlated-OT sender: yields ``(start, share_chunk)``, additive
    shares of ``choice_i * corr[i]``.

    For each correlation i the receiver ends with ``pad_i +
    choice_i*corr[i]`` and this side holds ``-pad_i``, so the two
    outputs are additive shares of the selected correlated value.  Wire
    cost is the Gilboa half-message: the receiver's one derandomization
    bit plus ONE masked ``bits``-wide lane per payload slot (not the two
    full messages of a chosen-message OT).

    The correction matrix is built row block by row block through
    ``corr_fn(start, stop) -> (stop-start, width)`` uint64 ring values
    and shipped as one lane frame per block (an empty batch still
    ships one, empty), so neither the correlations nor the pad arrays
    are ever materialized at full ``(n_cots, width)`` size -- the
    caller reduces each yielded share chunk immediately.  Lanes wider
    than one bit carry no per-frame header, so the wire bytes do not
    depend on ``chunk_rows`` (only the message count does), and
    per-row pads make the yielded values bit-identical too.  Both
    parties must agree on ``chunk_rows``.  ``tweaks`` are the per-COT
    hash tweaks (absolute COT indices).
    """
    mask = ring_mask_u64(bits)
    d = channel.recv_lanes(len(cots), 1)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for start in range(0, len(cots) or 1, chunk_rows):
        stop = min(start + chunk_rows, len(cots))
        corr = np.ascontiguousarray(corr_fn(start, stop), dtype=np.uint64)
        if corr.shape != (stop - start, width):
            raise ProtocolError("corr_fn returned a wrongly shaped chunk")
        z = cots.z[start:stop]
        d_chunk = d[start:stop]
        tw = tweaks[start:stop]
        # Pad for logical choice j is expand(z XOR (j XOR d) * Delta).
        pad0 = _expand_ring_pads(
            blocks.xor(z, blocks.mul_bit(cots.delta, d_chunk)), tw, width, bits, crhf
        )
        pad1 = _expand_ring_pads(
            blocks.xor(z, blocks.mul_bit(cots.delta, d_chunk ^ 1)), tw, width, bits, crhf
        )
        channel.send_lanes((corr + pad0 + pad1) & mask, bits)
        yield start, (np.uint64(0) - pad0) & mask


def gilboa_receive(
    channel: Channel,
    cots: CotReceiverBatch,
    choices: np.ndarray,
    width: int,
    bits: int,
    tweaks: np.ndarray,
    chunk_rows: int,
    crhf: Crhf = DEFAULT_CRHF,
):
    """Correlated-OT receiver: yields ``(start, share_chunk)``, additive
    shares of ``choice_i * corr[i]``.

    Mirror of :func:`gilboa_send`: the derandomization bits go out in
    one message, then each correction row block is received and
    unpadded separately so the full ``(n_cots, width)`` result never
    exists in memory at once.
    """
    choices = np.asarray(choices, dtype=np.uint8) & 1
    if choices.shape[0] != len(cots):
        raise ProtocolError("COT batch and choice vector must have equal length")
    mask = ring_mask_u64(bits)
    channel.send_lanes(cots.x ^ choices, 1)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for start in range(0, len(cots) or 1, chunk_rows):
        stop = min(start + chunk_rows, len(cots))
        pad_mine = _expand_ring_pads(
            cots.y[start:stop], tweaks[start:stop], width, bits, crhf
        )
        c = channel.recv_lanes((stop - start) * width, bits).reshape(-1, width)
        picked = choices[start:stop, None].astype(bool)
        yield start, np.where(picked, (c - pad_mine) & mask, pad_mine)


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


def dealer_bit_triples(n: int, rng: np.random.Generator) -> tuple:
    """Trusted-dealer bit triples: (party0 shares, party1 shares)."""
    a = rng.integers(0, 2, n).astype(np.uint8)
    b = rng.integers(0, 2, n).astype(np.uint8)
    sa, sb, sc = (rng.integers(0, 2, n).astype(np.uint8) for _ in range(3))
    return BitTriples(sa, sb, sc), BitTriples(a ^ sa, b ^ sb, (a & b) ^ sc)


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
        channel.send_lanes(np.concatenate([d_share, e_share]), 1)
        theirs = channel.recv_lanes(2 * n, 1)
    else:
        theirs = channel.recv_lanes(2 * n, 1)
        channel.send_lanes(np.concatenate([d_share, e_share]), 1)
    d = d_share ^ theirs[:n]
    e = e_share ^ theirs[n:]
    share = batch.c ^ (d & batch.b) ^ (e & batch.a)
    if party == 0:
        share ^= d & e
    return share
