"""Optional compiled fast paths for the two hottest producer kernels.

Shard workers spend nearly all their CPU in two places: the ChaCha
permutation behind ``TreePrg.expand`` (GGM tree levels) and the LPN
gather-XOR behind ``encode_blocks`` (this codebase's analogue of the
classic IKNP bit-transpose hot spot -- Ferret-style LPN never
transposes, it gathers).  When ``numba`` is importable, both kernels
run as parallel JIT loops; when it is not -- the common case, numba is
an *optional* dependency and is never installed by this repo -- every
call falls through to the in-place numpy kernels
(:func:`repro.crypto.chacha.chacha_core`, the column-at-a-time loop in
:mod:`repro.lpn.encode`).  The bit-exact oracles all of them are tested
against -- word-at-a-time ChaCha, gather-then-``reduce`` LPN -- live in
``tests/oracles.py``.

The one place that does transpose is the IKNP-style extension that
mints Ferret's first base COTs (:mod:`repro.ot.base_ot`): its packed
128 x n bit-transpose lives here too, in numpy only -- it runs once
per setup.

The dispatch is value-transparent: outputs are required (and tested,
when numba is present) to be bit-identical between the two paths, so
callers never need to know which one ran.  ``REPRO_NUMBA=0`` force-
disables the compiled path even when numba is installed.
"""

from __future__ import annotations

import os

import numpy as np

from repro.crypto.chacha import chacha_core as _chacha_core_numpy
from repro.errors import ParameterError

try:  # pragma: no cover - exercised only where numba is installed
    if os.environ.get("REPRO_NUMBA", "1") == "0":
        raise ImportError("numba disabled via REPRO_NUMBA=0")
    import numba

    HAVE_NUMBA = True
except ImportError:  # numpy kernels only
    numba = None
    HAVE_NUMBA = False

#: Below this many rows the JIT call overhead beats the speedup; the
#: numpy path serves small batches even when numba is available.
NUMBA_MIN_ROWS = 1 << 10


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @numba.njit(inline="always")
    def _qr(x, a, b, c, d):
        x[a] = x[a] + x[b]
        v = x[d] ^ x[a]
        x[d] = (v << np.uint32(16)) | (v >> np.uint32(16))
        x[c] = x[c] + x[d]
        v = x[b] ^ x[c]
        x[b] = (v << np.uint32(12)) | (v >> np.uint32(20))
        x[a] = x[a] + x[b]
        v = x[d] ^ x[a]
        x[d] = (v << np.uint32(8)) | (v >> np.uint32(24))
        x[c] = x[c] + x[d]
        v = x[b] ^ x[c]
        x[b] = (v << np.uint32(7)) | (v >> np.uint32(25))

    @numba.njit(cache=True, parallel=True)
    def _chacha_rows(initial, double_rounds, out):
        for r in numba.prange(initial.shape[0]):
            x = np.empty(16, dtype=np.uint32)
            for i in range(16):
                x[i] = initial[r, i]
            for _ in range(double_rounds):
                _qr(x, 0, 4, 8, 12)
                _qr(x, 1, 5, 9, 13)
                _qr(x, 2, 6, 10, 14)
                _qr(x, 3, 7, 11, 15)
                _qr(x, 0, 5, 10, 15)
                _qr(x, 1, 6, 11, 12)
                _qr(x, 2, 7, 8, 13)
                _qr(x, 3, 4, 9, 14)
            for i in range(16):
                out[r, i] = x[i] + initial[r, i]

    @numba.njit(cache=True, parallel=True)
    def _gather_xor_blocks(indices, vec, addend, out):
        rows, d = indices.shape
        for j in numba.prange(rows):
            lo = addend[j, 0]
            hi = addend[j, 1]
            for t in range(d):
                i = indices[j, t]
                lo ^= vec[i, 0]
                hi ^= vec[i, 1]
            out[j, 0] = lo
            out[j, 1] = hi


def chacha_core(initial: np.ndarray, rounds: int) -> np.ndarray:
    """ChaCha permutation + feed-forward; compiled when numba is present.

    Same contract as :func:`repro.crypto.chacha.chacha_core` (the numpy
    kernel); bit-identical output either way.
    """
    if HAVE_NUMBA and initial.shape[0] >= NUMBA_MIN_ROWS:
        if rounds % 2 != 0 or rounds <= 0:
            return _chacha_core_numpy(initial, rounds)  # raises
        out = np.empty_like(initial)
        _chacha_rows(np.ascontiguousarray(initial), rounds // 2, out)
        return out
    return _chacha_core_numpy(initial, rounds)


def gather_xor_blocks(
    indices: np.ndarray, vec: np.ndarray, addend: np.ndarray
) -> np.ndarray:
    """LPN block kernel body: ``out[j] = XOR_i vec[indices[j,i]] ^ addend[j]``.

    Compiled row-parallel loop under numba; ``None`` when numba is
    absent or the batch is too small, telling the caller to run its
    numpy column loop instead (the oracle is ``tests/oracles.py``).
    """
    if not HAVE_NUMBA or indices.shape[0] < NUMBA_MIN_ROWS:
        return None
    out = np.empty_like(addend)
    _gather_xor_blocks(
        np.ascontiguousarray(indices),
        np.ascontiguousarray(vec),
        np.ascontiguousarray(addend),
        out,
    )
    return out


def transpose_128(rows: np.ndarray, n: int) -> np.ndarray:
    """Packed 128 x n bit-matrix transpose (the IKNP kernel).

    8x8 bit tiles as uint64 lanes, three delta swaps each (Hacker's
    Delight 7-3), so nothing is ever unpacked to one byte per bit.
    Numpy only: ~0.1 ms at n = 2709 (one Ferret setup), ~35 ms at the
    695k of a paper-scale 4-shard mint.

    Args:
        rows: (128, ceil(n / 8)) uint8; bit ``j`` of row ``i`` sits in
            byte ``j // 8`` at bit ``j % 8`` (``np.packbits`` little
            bit order).
        n: number of columns to keep.

    Returns:
        (n, 2) uint64 block array whose block ``j`` has bit ``i`` equal
        to bit ``j`` of row ``i``.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    nbytes = (n + 7) // 8
    if rows.shape != (128, nbytes):
        raise ParameterError(
            f"transpose_128 needs a (128, {nbytes}) uint8 matrix for "
            f"n = {n}, got {rows.shape}"
        )
    # x[g, c]: the tile of rows 8g..8g+7 at byte column c, row r in byte r.
    x = np.ascontiguousarray(rows.reshape(16, 8, nbytes).transpose(0, 2, 1))
    x = x.view("<u8")[..., 0]
    # Byte r bit k of a lane moves to byte k bit r.
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0),
    ):
        t = (x ^ (x >> np.uint64(shift))) & np.uint64(mask)
        x = x ^ t ^ (t << np.uint64(shift))
    # Byte k of x[g, c] is now byte g of output row 8c + k.
    tiles = x.view(np.uint8).reshape(16, nbytes, 8)
    out = np.ascontiguousarray(tiles.transpose(1, 2, 0)).reshape(nbytes * 8, 16)
    return out[:n].view(np.uint64)
