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
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.errors import ParameterError
from repro.lpn.matrix import LpnMatrix

#: Rows per processing chunk: the accumulator slice and the gather
#: buffer (128 KB each for blocks) stay in L2 across the d column passes.
CHUNK_ROWS = 1 << 13


def _gather_xor(matrix: LpnMatrix, vec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[j] ^= XOR_{i in A_j} vec[i]`` on block or bit rows.

    Works in ``out``, which it returns.  ``mode="clip"`` only skips
    numpy's bounds-check copy through a temporary: ``LpnMatrix``
    range-checked its read-only indices.
    """
    vec = np.ascontiguousarray(vec)  # else np.take copies it on every call
    buf = np.empty((min(matrix.n, CHUNK_ROWS),) + vec.shape[1:], dtype=vec.dtype)
    for start in range(0, matrix.n, CHUNK_ROWS):
        acc = out[start : start + CHUNK_ROWS]
        got = buf[: acc.shape[0]]
        for t in range(matrix.d):
            column = matrix.indices[start : start + CHUNK_ROWS, t]
            np.take(vec, column, axis=0, out=got, mode="clip")
            np.bitwise_xor(acc, got, out=acc)
    return out


def encode_blocks(matrix: LpnMatrix, vec: np.ndarray, addend: np.ndarray) -> np.ndarray:
    """Block kernel: ``A * vec XOR addend`` over GF(2^128)."""
    blocks.require_blocks(vec, "vec")
    blocks.require_blocks(addend, "addend")
    if vec.shape[0] != matrix.k:
        raise ParameterError(f"input vector must have k={matrix.k} blocks")
    if addend.shape[0] != matrix.n:
        raise ParameterError(f"addend must have n={matrix.n} blocks")
    return _gather_xor(matrix, vec, addend.copy())


def encode_bits(matrix: LpnMatrix, bits: np.ndarray, addend_bits: np.ndarray) -> np.ndarray:
    """Bit kernel: ``A * bits XOR addend_bits`` over GF(2)."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[0] != matrix.k:
        raise ParameterError(f"input bit vector must have k={matrix.k} entries")
    out = np.array(addend_bits, dtype=np.uint8)  # a copy: the kernel's accumulator
    if out.shape[0] != matrix.n:
        raise ParameterError(f"addend must have n={matrix.n} bits")
    return _gather_xor(matrix, bits, out)


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
