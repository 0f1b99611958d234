"""LPN encoding: the local matrix-vector products of Section 2.3.2.

Given the fixed matrix ``A`` (as an index array) the three parties'
computations are all instances of two kernels:

* block kernel:  ``out[j] = XOR_{i in A_j} vec[i]  XOR  addend[j]``
  (sender: z = rA XOR w; receiver: y = sA XOR v);
* bit kernel:    ``out[j] = (sum_{i in A_j} bits[i]) mod 2 XOR u[j]``
  (receiver: x = eA XOR u).

Both run one in-place gather-XOR loop, a chunk of rows and one index
column at a time, so the working set is two L2-resident buffers
whatever ``n`` is.  The textbook formulation (gather all ``d`` rows of
a chunk, then XOR-reduce them) is the reference in ``tests/oracles.py``.

By default both kernels leave ``addend`` as it is and return a fresh
array.  A caller that owns its addend (a Ferret endpoint: MPCOT's
output) encodes in place with ``out=addend`` and hands in a reused
:func:`gather_buffer`, so the encode allocates nothing.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.errors import ParameterError
from repro.lpn.matrix import LpnMatrix

#: Rows per processing chunk: the accumulator slice and the gather
#: buffer (128 KB each for blocks) stay in L2 across the d column passes.
CHUNK_ROWS = 1 << 13


def gather_buffer(n: int) -> np.ndarray:
    """Scratch both kernels can gather a chunk of an ``n``-row encode
    into, over and over: a block array of ``min(n, CHUNK_ROWS)`` rows
    (the bit kernel uses its first bytes)."""
    return np.empty((min(n, CHUNK_ROWS), 2), dtype=blocks.BLOCK_DTYPE)


def _gather_xor(
    matrix: LpnMatrix, vec: np.ndarray, out: np.ndarray, gather: np.ndarray = None
) -> np.ndarray:
    """``out[j] ^= XOR_{i in A_j} vec[i]`` on block or bit rows.

    Works in ``out``, which it returns, gathering into ``gather`` (a
    :func:`gather_buffer`) when given.  ``mode="clip"`` only skips
    numpy's bounds-check copy through a temporary: ``LpnMatrix``
    range-checked its read-only indices.
    """
    vec = np.ascontiguousarray(vec)  # else np.take copies it on every call
    shape = (min(matrix.n, CHUNK_ROWS),) + vec.shape[1:]
    if gather is None:
        buf = np.empty(shape, dtype=vec.dtype)
    else:
        size = int(np.prod(shape)) * vec.dtype.itemsize
        buf = gather.reshape(-1).view(np.uint8)[:size].view(vec.dtype).reshape(shape)
    for start in range(0, matrix.n, CHUNK_ROWS):
        acc = out[start : start + CHUNK_ROWS]
        got = buf[: acc.shape[0]]
        for t in range(matrix.d):
            column = matrix.indices[start : start + CHUNK_ROWS, t]
            np.take(vec, column, axis=0, out=got, mode="clip")
            np.bitwise_xor(acc, got, out=acc)
    return out


def _accumulator(addend: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The kernel's accumulator: a copy of ``addend``, or ``out`` holding it."""
    if out is None:
        return addend.copy()
    if out.shape != addend.shape or out.dtype != addend.dtype:
        raise ParameterError(f"out must be a {addend.dtype} array of shape {addend.shape}")
    if out is not addend:
        out[...] = addend
    return out


def encode_blocks(
    matrix: LpnMatrix,
    vec: np.ndarray,
    addend: np.ndarray,
    out: np.ndarray = None,
    gather: np.ndarray = None,
) -> np.ndarray:
    """Block kernel: ``A * vec XOR addend`` over GF(2^128), into ``out``
    (which may be ``addend`` itself) or a fresh array."""
    blocks.require_blocks(vec, "vec")
    blocks.require_blocks(addend, "addend")
    if vec.shape[0] != matrix.k:
        raise ParameterError(f"input vector must have k={matrix.k} blocks")
    if addend.shape[0] != matrix.n:
        raise ParameterError(f"addend must have n={matrix.n} blocks")
    return _gather_xor(matrix, vec, _accumulator(addend, out), gather)


def encode_bits(
    matrix: LpnMatrix,
    bits: np.ndarray,
    addend_bits: np.ndarray,
    out: np.ndarray = None,
    gather: np.ndarray = None,
) -> np.ndarray:
    """Bit kernel: ``A * bits XOR addend_bits`` over GF(2), into ``out``
    (which may be ``addend_bits`` itself) or a fresh array."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[0] != matrix.k:
        raise ParameterError(f"input bit vector must have k={matrix.k} entries")
    addend_bits = np.asarray(addend_bits, dtype=np.uint8)
    if addend_bits.shape[0] != matrix.n:
        raise ParameterError(f"addend must have n={matrix.n} bits")
    return _gather_xor(matrix, bits, _accumulator(addend_bits, out), gather)


def encode_streamed(
    matrix_cols: np.ndarray,
    matrix_rows: np.ndarray,
    vec: np.ndarray,
    addend: np.ndarray,
) -> np.ndarray:
    """Reference encoder for *sorted* access streams.

    Processes (col, row) pairs in stream order -- exactly what the NMP
    rank module does with the Colidx/Rowidx arrays of Section 5.3 --
    and must produce the same output as :func:`encode_blocks` on the
    unsorted matrix.  Used by tests to prove sorting preserves results.
    """
    blocks.require_blocks(vec, "vec")
    out = addend.copy()
    np.bitwise_xor.at(out, matrix_rows, vec[matrix_cols])
    return out
