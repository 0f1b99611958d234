"""The packed bit-matrix transpose behind the IKNP-style extension.

Ferret-style LPN never transposes, it gathers; the one place that does
transpose is the extension that mints Ferret's first base COTs
(:mod:`repro.ot.base_ot`).  Its packed 128 x n kernel lives here, in
numpy -- it runs once per setup.  The two data-plane kernels have one
implementation each, next to their callers:
:func:`repro.crypto.chacha.chacha_core` and the column-at-a-time loop
in :mod:`repro.lpn.encode`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError


def transpose_128(rows: np.ndarray, n: int) -> np.ndarray:
    """Packed 128 x n bit-matrix transpose (the IKNP kernel).

    8x8 bit tiles as uint64 lanes, three delta swaps each (Hacker's
    Delight 7-3), so nothing is ever unpacked to one byte per bit.
    ~0.1 ms at n = 2709 (one Ferret setup), ~35 ms at the
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
