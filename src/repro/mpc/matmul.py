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
  open masked operands ``D = X - A`` and ``E = Y - B`` (one message
  each, :func:`matmul_online_bytes` exactly) and locally combine
  ``C + D@B_p + A_p@E (+ D@E)``.  With warm pools the online phase
  does no OT work at all -- the Figure 1(b)/Section 5.2 amortization
  realized for linear layers.
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
    gilboa_receive_stream,
    gilboa_send_stream,
    ring_mask_u64,
)
from repro.mpc.truncation import require_service_ring, trunc_draws, truncate
from repro.ot.channel import Channel
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
#: ``GILBOA_CHUNK_ROWS * width * 8`` bytes regardless of t.
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


def matmul_online_bytes(dims: MatmulDims, ring_bytes: int = 8) -> int:
    """Exact online-phase wire bytes of :func:`matmul_online` (both parties).

    Each party opens its shares of ``D`` (m*k) and ``E`` (k*n) in one
    message of uint64 ring elements; no OT traffic remains online.
    """
    return 2 * (dims.m * dims.k + dims.k * dims.n) * ring_bytes


def matmul_preproc_bytes(
    dims: MatmulDims, bits: int, ring_bytes: int = 8
) -> int:
    """Exact preprocessing wire bytes of :func:`generate_matrix_triples`.

    Per Gilboa correlation the receiver contributes one derandomization
    bit and the sender one masked ring element per payload slot: the
    activation term carries rows of B (n slots), the weight term
    columns of A (m slots).  Bit vectors ride in one length-prefixed
    message per term (8-byte header, bit-packed).

    Chunked payload streaming (``GILBOA_CHUNK_ROWS``) splits each
    term's payload into ``ceil(t / chunk)`` ring messages, but ring
    payloads are raw uint64 bytes with no per-message framing, so the
    byte count is chunking-invariant -- the equality tests assert this
    model against the measured bytes of the streamed protocol.
    """
    t_act = dims.m * dims.k * bits
    t_wgt = dims.k * dims.n * bits
    payload = (t_act * dims.n + t_wgt * dims.m) * ring_bytes
    corrections = (8 + (t_act + 7) // 8) + (8 + (t_wgt + 7) // 8)
    return payload + corrections


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
    shifts = np.uint64(1) << np.arange(bits, dtype=np.uint64)

    # Both cross terms stream in row blocks: COT row r of the activation
    # term is (i, j, t) = (r // (k*bits), (r // bits) % k, r % bits) with
    # payload B[j, :] << t, reduced into acc[i, :]; the weight term's row
    # is (j, l, t) = (r // (n*bits), (r // bits) % n, r % bits) with
    # payload A[:, j] << t, reduced into acc[l, :].  Sums wrap mod 2^64
    # exactly like the one-shot reshape().sum() they replace.
    def act_corr(start, stop):
        r = np.arange(start, stop)
        return (b[(r // bits) % k, :] * shifts[r % bits][:, None]) & mask

    def wgt_corr(start, stop):
        r = np.arange(start, stop)
        return (a.T[r // (n * bits), :] * shifts[r % bits][:, None]) & mask

    def reduce_term(chunks, group, out_rows, width):
        acc = np.zeros((out_rows, width), dtype=np.uint64)
        for start, share in chunks:
            rows = np.arange(start, start + share.shape[0]) // group
            np.add.at(acc, rows, share)
        return acc

    if party != ot_sender:
        # Activation term: choices = bits of my A (flattened (i,j) then t);
        # payload slot = the peer's B[j, :].
        chunks = gilboa_receive_stream(
            channel, pool.take_receiver(t_act), _bit_decompose(a, bits),
            n, bits, tweaks_act, chunk_rows,
        )
        cross_act = reduce_term(chunks, k * bits, m, n)
        # Weight term: choices = bits of my B ((j,l) then t); payload =
        # the peer's A[:, j].
        chunks = gilboa_receive_stream(
            channel, pool.take_receiver(t_wgt), _bit_decompose(b, bits),
            m, bits, tweaks_wgt, chunk_rows,
        )
    else:
        # Activation term payloads: corr[(i,j,t)] = B_me[j, :] << t.
        chunks = gilboa_send_stream(
            channel, pool.take_sender(t_act), act_corr, n, bits,
            tweaks_act, chunk_rows,
        )
        cross_act = reduce_term(chunks, k * bits, m, n)
        # Weight term payloads: corr[(j,l,t)] = A_me[:, j] << t.
        chunks = gilboa_send_stream(
            channel, pool.take_sender(t_wgt), wgt_corr, m, bits,
            tweaks_wgt, chunk_rows,
        )
    # Weight reduction groups rows by l = (r // bits) % n, which is NOT
    # monotone in r -- fold the leading j axis away first by reducing
    # modulo the (n, bits) tail.
    acc = np.zeros((n, m), dtype=np.uint64)
    for start, share in chunks:
        rows = (np.arange(start, start + share.shape[0]) // bits) % n
        np.add.at(acc, rows, share)
    cross_wgt = acc.T
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
        channel.send_ring(mine)
        theirs = channel.recv_ring()
    else:
        theirs = channel.recv_ring()
        channel.send_ring(mine)
    if theirs.shape[0] != mine.shape[0]:
        raise ProtocolError("peer opening has the wrong length")
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
    mode: str = "exact",
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
    (triple, *material), _ = session.draw(
        matmul_draws(m, x_share.shape[1], n) + trunc_draws(m * n, fx, mode)
    )
    z = matmul_online(session.channel, x_share, y_share, triple, session.party)
    out = truncate(
        session.channel, z.reshape(-1), fx, session.party, material, mode, rng
    )
    return np.asarray(out, dtype=np.uint64).reshape(z.shape)
