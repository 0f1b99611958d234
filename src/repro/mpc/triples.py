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
wire carries 2 bytes per slot; pads, payloads and shares are held at
that lane dtype (:func:`ring_dtype`) in memory too.  Matrix triples
batch whole rows/columns of the peer operand as the correlated
payload, which is how one secure MatMul costs ``(m*k + k*n) * bits``
COTs rather than ``m*k*n`` (see :mod:`repro.mpc.matmul`).
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


def ring_dtype(bits: int) -> np.dtype:
    """The unsigned dtype a ``bits``-wide ring value lives in: its wire
    lane's (:func:`repro.ot.channel.lane_bytes`), uint16 on a 16-bit
    ring.  Arithmetic at this dtype wraps mod 2^(8*lane)."""
    return np.dtype(f"u{lane_bytes(bits)}")


def _wrap(values: np.ndarray, bits: int) -> np.ndarray:
    """Reduce lane-dtype ``values`` mod 2^bits in place (a no-op when
    ``bits`` fills the lane) and return them."""
    if bits < 8 * values.dtype.itemsize:
        values &= values.dtype.type((1 << bits) - 1)
    return values


def _expand_ring_pads(
    x: np.ndarray, tweaks: np.ndarray, width: int, bits: int, crhf: Crhf
) -> np.ndarray:
    """Stretch each block of ``x`` into ``width`` ring pads, in ONE
    ``hash_tweaked`` call.

    Every 128-bit hash output is cut into wire-width little-endian
    lanes (:func:`repro.ot.channel.lane_bytes`: 16 / 8 / 4 / 2 pads per
    hash), so a block costs ``ceil(width / lanes)`` AES blocks: it is
    hashed that many times, its j-th copy under ``tweak + j *
    _PAD_STRIDE``, as consecutive rows of the one call.  Disjoint
    slices of one CRHF output are as pseudorandom as the truncation to
    ``bits`` itself.  Returns the hash output as contiguous ``(rows,
    per * lanes)`` lanes at :func:`ring_dtype`, not yet reduced mod
    2^bits: a row's first ``width`` lanes are its pads (the caller cuts
    them late, because numpy is several times slower on the strided
    ``[:, :width]`` view than on whole rows).  Pad derivation is part
    of the protocol: both ``gilboa_*`` functions, on both parties, go
    through here.
    """
    lane = lane_bytes(bits)
    lanes = blocks.BLOCK_BYTES // lane
    per = -(-width // lanes)
    if per > 1:
        x = np.repeat(x, per, axis=0)
        strides = _PAD_STRIDE * np.arange(per, dtype=np.uint64)
        tweaks = (tweaks[:, None] + strides).reshape(-1)
    h = crhf.hash_tweaked(x, tweaks)
    return h.view(f"<u{lane}").reshape(-1, per * lanes)


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
    ``corr_fn(start, stop) -> (stop-start, width)`` ring values (any
    unsigned dtype; only their low ``bits`` count) and shipped as one
    lane frame per block (an empty batch still ships one, empty), so
    neither the correlations nor the pad arrays are ever materialized
    at full ``(n_cots, width)`` size -- the caller reduces each yielded
    share chunk immediately.  Shares are :func:`ring_dtype` arrays.
    Lanes wider than one bit carry no per-frame header, so the wire
    bytes do not depend on ``chunk_rows`` (only the message count
    does), and per-row pads make the yielded values bit-identical too.
    Both parties must agree on ``chunk_rows``.  ``tweaks`` are the
    per-COT hash tweaks (absolute COT indices).
    """
    dtype = ring_dtype(bits)
    d = channel.recv_lanes(len(cots), 1).astype(np.intp)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for start in range(0, len(cots) or 1, chunk_rows):
        stop = min(start + chunk_rows, len(cots))
        rows = stop - start
        corr = np.asarray(corr_fn(start, stop)).astype(dtype, copy=False)
        if corr.shape != (rows, width):
            raise ProtocolError("corr_fn returned a wrongly shaped chunk")
        z = cots.z[start:stop]
        tw = tweaks[start:stop]
        # P(z) and P(z XOR Delta) in one hash call, as rows [0, rows) and
        # [rows, 2*rows).  The pad of logical choice 0 is P(z XOR d*Delta)
        # (one take row by row), so the pair sums to P(z) + P(z XOR Delta).
        pads = _expand_ring_pads(
            np.concatenate([z, blocks.xor(z, cots.delta)]),
            np.concatenate([tw, tw]), width, bits, crhf,
        )
        channel.send_lanes(_wrap((pads[:rows] + pads[rows:])[:, :width] + corr, bits), bits)
        pad0 = pads.take(np.arange(rows) + rows * d[start:stop], axis=0)[:, :width]
        yield start, _wrap(np.negative(pad0), bits)


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
    shares of ``choice_i * corr[i]`` at :func:`ring_dtype`.

    Mirror of :func:`gilboa_send`: the derandomization bits go out in
    one message, then each correction row block is received and
    unpadded separately so the full ``(n_cots, width)`` result never
    exists in memory at once.
    """
    choices = np.asarray(choices, dtype=np.uint8) & 1
    if choices.shape[0] != len(cots):
        raise ProtocolError("COT batch and choice vector must have equal length")
    channel.send_lanes(cots.x ^ choices, 1)
    picked = choices.astype(bool)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for start in range(0, len(cots) or 1, chunk_rows):
        stop = min(start + chunk_rows, len(cots))
        pad = _expand_ring_pads(
            cots.y[start:stop], tweaks[start:stop], width, bits, crhf
        )[:, :width]
        c = channel.recv_lanes((stop - start) * width, bits).reshape(-1, width)
        c -= pad
        yield start, _wrap(np.where(picked[start:stop, None], c, pad), bits)


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
