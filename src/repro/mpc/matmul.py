"""Executable secure matrix multiplication (the Fig 16 workload, live).

PrivQuant-style quantized MatMul evaluates ``(m x k) @ (k x n)`` on
additive shares with COT-based multiplication.  This module makes the
preprocessing/online split an actual code path:

* **Preprocessing** -- :func:`generate_matrix_triples` builds a matrix
  Beaver triple ``C = A @ B`` via Gilboa multiplication over pooled
  COTs.  Each cross term bit-decomposes ONE operand: the activation
  term sources ``m*k*bits`` correlations (payload = a row of the peer's
  B share), the weight term ``k*n*bits`` (payload = a column of the
  peer's A share), so the total demand is exactly
  :func:`matmul_cots` -- the analytical model and the executable
  protocol share one counting function and one per-COT byte constant
  (:data:`BYTES_PER_COT`), so they cannot silently diverge.
* **Role switching** -- ``ot_sender`` picks which party ships the
  Gilboa correction payloads for BOTH cross terms.  A fixed-role
  accelerator is stuck with one direction; Ironman's unified
  architecture picks the cheaper one per term (the paper's 2x comm /
  1.4x latency claim).  Both directions are real code paths here with
  measurable bytes.
* **Online** -- :func:`matmul_online` consumes one triple: the parties
  open masked operands ``D = X - A`` and ``E = Y - B`` (one lane frame
  each at the triple's ring width, :func:`matmul_online_bytes` exactly)
  and locally combine ``C + D@B_p + A_p@E (+ D@E)``.  With warm pools
  the online phase does no OT work at all -- the Figure 1(b)/Section
  5.2 amortization realized for linear layers.
* **Service verbs** -- :func:`matmul_via_service` draws
  :func:`matmul_draws` (one matrix triple of its shape) from a session;
  :func:`matmul_rescale_via_service` draws that plus
  :func:`repro.mpc.truncation.trunc_draws` in the same allocation
  message.  The planner prices the same lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError, ProtocolError
from repro.mpc.triples import (
    MatrixTriples,
    _bit_decompose,
    gilboa_receive,
    gilboa_send,
    ring_dtype,
    ring_mask_u64,
)
from repro.mpc.truncation import require_service_ring, trunc_draws, truncate_shares
from repro.ot.channel import Channel, lanes_bytes
from repro.ot.cot import CotPool

#: Default operand bit-width (quantized inference).
DEFAULT_BITS = 8

#: Online bytes shipped per COT-backed multiplication term: one masked
#: 128-bit block plus the receiver's derandomization bit.  Single
#: definition shared by the analytical PPML model
#: (:mod:`repro.ppml.matmul`) and the executable protocol's byte
#: predictors below.
BYTES_PER_COT = 17

#: Row-block size for streamed Gilboa correction payloads.  FIG16-size
#: triples used to materialize the full (t, width) correction matrix --
#: ~1 GiB at (64, 4096, 64) x 8 bits -- so the payload now streams in
#: blocks of this many COT rows; peak working set per term becomes
#: ``GILBOA_CHUNK_ROWS * width`` ring lanes regardless of t, plus the
#: sender's two payload tables, ``(k*bits, n)`` and ``(k*bits, m)``
#: ring lanes (built at the lane dtype, no wider intermediate): e.g.
#: 18.9 + 1.6 MB at (64, 768, 768) x 16 bits.
GILBOA_CHUNK_ROWS = 1 << 12


@dataclass(frozen=True)
class MatmulDims:
    """(input, hidden, output) dimensions as labelled in Figure 16."""

    m: int
    k: int
    n: int

    def __post_init__(self):
        if min(self.m, self.k, self.n) < 1:
            raise ParameterError("matmul dimensions must be positive")

    @property
    def label(self) -> str:
        return f"({self.m},{self.k},{self.n})"


#: Figure 16 layer shapes (BERT-Base and LLaMA projections, seq 32).
FIG16_DIMS = (
    MatmulDims(64, 768, 768),
    MatmulDims(64, 768, 64),
    MatmulDims(64, 4096, 64),
)


def matmul_cots(dims: MatmulDims, bits: int = DEFAULT_BITS) -> int:
    """COT correlations one secure MatMul consumes.

    The product of secret shares decomposes into two cross terms; the
    one sourced from the activation side scales with ``m*k`` elements,
    the weight side with ``k*n``, ``bits`` correlations per element.
    The demand is role-independent -- what role switching changes is
    which party *transmits* for each term.  This count is exact for
    :func:`generate_matrix_triples` (asserted by the test suite).
    """
    return (dims.m * dims.k + dims.k * dims.n) * bits


def matmul_online_bytes(dims: MatmulDims, bits: int) -> int:
    """Exact online-phase wire bytes of :func:`matmul_online` (both parties).

    Each party opens its shares of ``D`` (m*k) and ``E`` (k*n) in one
    frame of ``bits``-wide lanes; no OT traffic remains online.
    """
    return 2 * lanes_bytes(dims.m * dims.k + dims.k * dims.n, bits)


def matmul_preproc_bytes(dims: MatmulDims, bits: int) -> int:
    """Exact preprocessing wire bytes of :func:`generate_matrix_triples`.

    Per Gilboa correlation the receiver contributes one derandomization
    bit and the sender one masked ``bits``-wide lane per payload slot:
    the activation term carries rows of B (n slots), the weight term
    columns of A (m slots).  Each term's correction bits are one 1-bit
    frame.

    Chunked payload streaming (``GILBOA_CHUNK_ROWS``) splits each
    term's payload into ``ceil(t / chunk)`` frames, but lanes of two or
    more bits carry no per-frame header, so for ``bits >= 2`` the byte
    count is chunking-invariant -- the equality tests assert this model
    against the measured bytes of the streamed protocol.
    """
    t_act = dims.m * dims.k * bits
    t_wgt = dims.k * dims.n * bits
    payload = lanes_bytes(t_act * dims.n, bits) + lanes_bytes(t_wgt * dims.m, bits)
    return payload + lanes_bytes(t_act, 1) + lanes_bytes(t_wgt, 1)


def _reduce_rows(chunks, group: int, out_rows: int, width: int) -> np.ndarray:
    """Sum Gilboa share rows into a ``(out_rows, width)`` uint64 matrix:
    COT row r lands in row ``(r // group) % out_rows``.

    ``chunks`` yields ``(start, share)`` row blocks in stream order.
    Each block's rows fall into contiguous groups of ``group`` rows
    (its first and last group possibly cut by the block's ends): one
    ``np.add.reduceat`` sums them, widening to uint64, and the group
    sums fold onto their output rows by reshaping whole cycles of
    ``out_rows`` groups.  Sums wrap mod 2^64, so the caller's final
    reduction mod 2^bits is exact.
    """
    acc = np.zeros((out_rows, width), dtype=np.uint64)
    for start, share in chunks:
        stop = start + share.shape[0]
        first = start // group
        heads = np.arange(first, -(-stop // group)) * group - start
        sums = np.add.reduceat(share, np.maximum(heads, 0), axis=0, dtype=np.uint64)
        lead = first % out_rows
        cycles = -(-(lead + len(sums)) // out_rows)
        folded = np.zeros((cycles * out_rows, width), dtype=np.uint64)
        folded[lead : lead + len(sums)] = sums
        acc += folded.reshape(cycles, out_rows, width).sum(axis=0, dtype=np.uint64)
    return acc


def generate_matrix_triples(
    channel: Channel,
    dims: MatmulDims,
    bits: int,
    pool: CotPool,
    rng: np.random.Generator,
    party: int,
    ot_sender: int = 1,
    tweak_base: int = 0,
    chunk_rows: int = GILBOA_CHUNK_ROWS,
) -> MatrixTriples:
    """One matrix Beaver triple over Z_2^bits via Gilboa multiplication.

    Each party samples its own (A_p, B_p) shares; the two cross terms
    ``A_r @ B_s`` (r = receiver party, s = ``ot_sender``) are computed
    with ``matmul_cots(dims, bits)`` COTs all drawn from ONE direction:
    the receiver party bit-decomposes its A (activation term, payload =
    rows of the sender's B) and then its B (weight term, payload =
    columns of the sender's A).

    Args:
        pool: COT pool for the direction where ``ot_sender`` is the COT
            sender; this party's role in it must match.
        ot_sender: which party ships the correction payloads for both
            terms -- the Fig 16 role choice, both values supported.
        tweak_base: absolute pool offset of the consumed range (both
            parties must pass the same value).
        chunk_rows: Gilboa row-block size; the correction matrix is
            built, shipped and reduced in blocks of this many COT rows
            instead of ever materializing ``(t, width)``.  Both parties
            must pass the same value; outputs and wire bytes are
            chunking-invariant.
    """
    if party not in (0, 1) or ot_sender not in (0, 1):
        raise ParameterError("party and ot_sender must be 0 or 1")
    if chunk_rows < 1:
        raise ParameterError(f"chunk_rows must be >= 1, got {chunk_rows}")
    m, k, n = dims.m, dims.k, dims.n
    mask = ring_mask_u64(bits)
    a = rng.integers(0, 1 << bits, (m, k), dtype=np.uint64)
    b = rng.integers(0, 1 << bits, (k, n), dtype=np.uint64)
    t_act = m * k * bits
    t_wgt = k * n * bits
    tweaks_act = np.arange(tweak_base, tweak_base + t_act, dtype=np.uint64)
    tweaks_wgt = np.arange(
        tweak_base + t_act, tweak_base + t_act + t_wgt, dtype=np.uint64
    )

    # COT row r of the activation term is (i, j, t) = (r // (k*bits),
    # (r // bits) % k, r % bits) with payload B[j, :] << t, reduced into
    # row i; the weight term's row is (j, l, t) = (r // (n*bits),
    # (r // bits) % n, r % bits) with payload A[:, j] << t, reduced into
    # row l.
    if party != ot_sender:
        # Activation term: choices = bits of my A (flattened (i,j) then t);
        # payload slot = the peer's B[j, :].
        chunks = gilboa_receive(
            channel, pool.take_receiver(t_act), _bit_decompose(a, bits),
            n, bits, tweaks_act, chunk_rows,
        )
        cross_act = _reduce_rows(chunks, k * bits, m, n)
        # Weight term: choices = bits of my B ((j,l) then t); payload =
        # the peer's A[:, j].
        chunks = gilboa_receive(
            channel, pool.take_receiver(t_wgt), _bit_decompose(b, bits),
            m, bits, tweaks_wgt, chunk_rows,
        )
    else:
        # Payload rows are one take on a (k*bits, width) table whose row
        # j*bits + t is that payload, at the ring's lane dtype.
        # A shift by less than the lane width wraps like the uint64
        # shift cast down would.
        dt = ring_dtype(bits)
        shifts = np.arange(bits, dtype=dt)[None, :, None]
        act_table, wgt_table = (
            (cols.astype(dt)[:, None, :] << shifts).reshape(k * bits, -1)
            for cols in (b, a.T)
        )

        def act_corr(start, stop):
            return act_table.take(np.arange(start, stop) % (k * bits), axis=0)

        def wgt_corr(start, stop):
            r = np.arange(start, stop)
            return wgt_table.take(r // (n * bits) * bits + r % bits, axis=0)

        chunks = gilboa_send(
            channel, pool.take_sender(t_act), act_corr, n, bits,
            tweaks_act, chunk_rows,
        )
        cross_act = _reduce_rows(chunks, k * bits, m, n)
        chunks = gilboa_send(
            channel, pool.take_sender(t_wgt), wgt_corr, m, bits,
            tweaks_wgt, chunk_rows,
        )
    cross_wgt = _reduce_rows(chunks, bits, n, m).T
    c = (a @ b + cross_act + cross_wgt) & mask
    return MatrixTriples(a, b, c, bits)


def matmul_online(
    channel: Channel,
    x_share: np.ndarray,
    y_share: np.ndarray,
    triple: MatrixTriples,
    party: int,
) -> np.ndarray:
    """Online Beaver MatMul: this party's share of ``X @ Y`` mod 2^bits.

    Both parties call in lockstep with their (m,k) / (k,n) shares and a
    matching matrix triple.  The only traffic is one opening message
    per party (``matmul_online_bytes`` exactly); all OT work happened
    at preprocessing time.
    """
    mask = ring_mask_u64(triple.bits)
    x_share = np.asarray(x_share, dtype=np.uint64) & mask
    y_share = np.asarray(y_share, dtype=np.uint64) & mask
    m, k, n = triple.dims
    if x_share.shape != (m, k) or y_share.shape != (k, n):
        raise ProtocolError(
            f"share shapes {x_share.shape}@{y_share.shape} do not match "
            f"triple dims {(m, k, n)}"
        )
    d_share = (x_share - triple.a) & mask
    e_share = (y_share - triple.b) & mask
    mine = np.concatenate([d_share.reshape(-1), e_share.reshape(-1)])
    if party == 0:
        channel.send_lanes(mine, triple.bits)
        theirs = channel.recv_lanes(mine.shape[0], triple.bits)
    else:
        theirs = channel.recv_lanes(mine.shape[0], triple.bits)
        channel.send_lanes(mine, triple.bits)
    d = (d_share + theirs[: m * k].reshape(m, k)) & mask
    e = (e_share + theirs[m * k :].reshape(k, n)) & mask
    z = (triple.c + d @ triple.b + triple.a @ e) & mask
    if party == 0:
        z = (z + d @ e) & mask
    return z


def matmul_draws(m: int, k: int, n: int) -> list:
    """The ``(pool kind, key, count)`` list one secure MatMul consumes:
    one preprocessed matrix triple of its shape."""
    return [("mtri", (m, k, n), 1)]


def _matmul_shares(x_share, y_share) -> tuple:
    x_share = np.asarray(x_share, dtype=np.uint64)
    y_share = np.asarray(y_share, dtype=np.uint64)
    if x_share.ndim != 2 or y_share.ndim != 2 or x_share.shape[1] != y_share.shape[0]:
        raise ParameterError("share shapes must be (m,k) and (k,n)")
    return x_share, y_share


def matmul_via_service(session, x_share: np.ndarray, y_share: np.ndarray) -> np.ndarray:
    """Secure MatMul drawing its matrix triple from a service session.

    Dims are inferred from the share shapes; the session draws
    :func:`matmul_draws` (preprocessed in the background -- or produced
    on demand if the pool is cold) and runs the online phase over the
    session sub-channel.  A product that needs rescaling back to scale
    2^f goes through :func:`matmul_rescale_via_service` instead.
    """
    x_share, y_share = _matmul_shares(x_share, y_share)
    (triple,), _ = session.draw(matmul_draws(*x_share.shape, y_share.shape[1]))
    return matmul_online(session.channel, x_share, y_share, triple, session.party)


def matmul_rescale_via_service(
    session,
    x_share: np.ndarray,
    y_share: np.ndarray,
    fx,
    rng=None,
) -> np.ndarray:
    """Fused secure MatMul + fixed-point rescale on one session verb.

    Functionally identical to :func:`matmul_via_service` followed by
    :func:`repro.mpc.truncation.trunc_via_service`, and it consumes
    exactly their two lists (:func:`matmul_draws` +
    :func:`~repro.mpc.truncation.trunc_draws`) -- drawn together, so
    the layer pays one allocation message instead of two.
    """
    if fx is None:
        raise ParameterError("the fused matmul+rescale verb needs a FixedPointConfig")
    require_service_ring(session, fx)
    x_share, y_share = _matmul_shares(x_share, y_share)
    m, n = x_share.shape[0], y_share.shape[1]
    (triple, cots, triples), _ = session.draw(
        matmul_draws(m, x_share.shape[1], n) + trunc_draws(m * n, fx)
    )
    z = matmul_online(session.channel, x_share, y_share, triple, session.party)
    out = truncate_shares(
        session.channel, z.reshape(-1), fx, session.party, CotPool.of(cots),
        triples, rng=rng,
    )
    return np.asarray(out, dtype=np.uint64).reshape(z.shape)
