"""AES-128 implemented from scratch (FIPS-197), vectorized with numpy.

The PCG-style OT extension baseline instantiates its PRG with AES
because of AES-NI on CPUs (Section 2.3.1 of the paper):

    G(s) = AES_k0(s) XOR s  ||  AES_k1(s) XOR s

This module provides a batch encryption kernel so that whole GGM-tree
levels can be expanded with a handful of numpy gathers instead of a
Python loop per block.  The implementation is the classic T-table
formulation; tables are derived programmatically from the GF(2^8)
arithmetic rather than hard-coded, which keeps the module
self-verifying (the known-answer tests pin it to FIPS-197 vectors).

The kernel holds ``n`` states column-major as one ``(4, n)`` uint32
array and reads byte ``i`` of all four columns through the array's
uint8 view, so a round is four whole-state table gathers and seven
in-place XORs -- no shift, no mask, ~120 numpy calls per batch.  The
word-at-a-time formulation (one ``(n,)`` array per state column, bytes
pulled out with ``>>`` and ``& 0xFF``) is the reference in
``tests/oracles.py``.

Only encryption is implemented: every use in this package (PRG, CRHF)
is encrypt-only, as in the Ferret/EMP codebase.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.errors import ParameterError


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Full GF(2^8) multiplication (schoolbook, used only at import time)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> np.ndarray:
    """Construct the AES S-box from inversion + affine map (FIPS-197 5.1.1)."""
    # Multiplicative inverses via exhaustive search (256 elements, import-time).
    inv = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inv[x] = y
                break
    sbox = np.zeros(256, dtype=np.uint8)
    for x in range(256):
        b = inv[x]
        res = 0x63
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
            ) & 1
            res ^= bit << i
        sbox[x] = res
    return sbox


_SBOX = _build_sbox()

_RCON = np.array([0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36], dtype=np.uint8)


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the four encryption T-tables in little-endian packing.

    With state columns packed little-endian (byte r of a column lives at
    bits [8r, 8r+8)), the contribution of input byte ``x`` feeding
    MixColumns row slot ``i`` is ``T_i[x]``.
    """
    s = _SBOX.astype(np.uint32)
    s2 = np.array([_gf_mul(int(v), 2) for v in _SBOX], dtype=np.uint32)
    s3 = np.array([_gf_mul(int(v), 3) for v in _SBOX], dtype=np.uint32)
    t0 = s2 | (s << 8) | (s << 16) | (s3 << 24)
    t1 = s3 | (s2 << 8) | (s << 16) | (s << 24)
    t2 = s | (s3 << 8) | (s2 << 16) | (s << 24)
    t3 = s | (s << 8) | (s3 << 16) | (s2 << 24)
    return t0, t1, t2, t3


#: Number of AES-128 rounds.
ROUNDS = 10

#: Blocks per processing chunk: state + scratch (~0.4 MB) stay in L2.
CHUNK_BLOCKS = 1 << 13

#: Per round, the table byte ``i`` of a column goes through.  The final
#: round has no MixColumns: its "T-tables" are the S-box shifted to byte i.
_LAST = tuple(_SBOX.astype(np.uint32) << np.uint32(8 * i) for i in range(4))
_ROUND_TABLES = (_build_tables(),) * (ROUNDS - 1) + (_LAST,)


def expand_key(key: bytes) -> np.ndarray:
    """AES-128 key schedule.

    Returns an array of shape (11, 4) uint32: one little-endian-packed
    round key per round, matching the state packing used by
    :func:`encrypt_blocks`.
    """
    if len(key) != 16:
        raise ParameterError(f"AES-128 key must be 16 bytes, got {len(key)}")
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [int(_SBOX[b]) for b in temp]  # SubWord
            temp[0] ^= int(_RCON[i // 4 - 1])
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    packed = np.zeros((11, 4), dtype=np.uint32)
    for rnd in range(11):
        for col in range(4):
            b = words[4 * rnd + col]
            packed[rnd, col] = b[0] | (b[1] << 8) | (b[2] << 16) | (b[3] << 24)
    return packed


class AES128:
    """A fixed-key AES-128 instance with a batch encryption kernel."""

    def __init__(self, key: bytes):
        self.key = bytes(key)
        self._rk = expand_key(self.key)

    def encrypt_blocks(self, data: np.ndarray) -> np.ndarray:
        """Encrypt a block array (shape (n, 2) uint64) under this key."""
        w = blocks.to_uint32(data)
        out = np.empty(w.shape, dtype=np.uint32)
        for start in range(0, w.shape[0], CHUNK_BLOCKS):
            chunk = slice(start, start + CHUNK_BLOCKS)
            self._encrypt_chunk(w[chunk], out[chunk])
        return blocks.from_uint32(out)

    def _encrypt_chunk(self, w: np.ndarray, out: np.ndarray) -> None:
        """``out = AES(w)`` on (n, 4) uint32 words; all scratch is call-local
        (both parties' threads share instances, see ``DEFAULT_CRHF``)."""
        n = w.shape[0]
        rk = self._rk[:, :, None]
        s = np.empty((4, n), dtype=np.uint32)  # s[c] is column c of every block
        nxt = np.empty((4, n), dtype=np.uint32)
        g = np.empty((4, n), dtype=np.uint32)
        np.bitwise_xor(w.T, rk[0], out=s)  # never in place: w may be the caller's
        for rnd, tables in enumerate(_ROUND_TABLES, start=1):
            byte = s.view(np.uint8).reshape(4, n, 4)  # byte[c, :, i]: row i of column c
            # Column c takes T_i[row i of column c + i]: ShiftRows is the
            # row offset of the XOR.  mode="clip" skips the buffered bounds
            # check; a uint8 index into a 256-entry table cannot clip.
            np.take(tables[0], byte[:, :, 0], out=nxt, mode="clip")
            np.bitwise_xor(nxt, rk[rnd], out=nxt)
            for i in (1, 2, 3):
                np.take(tables[i], byte[:, :, i], out=g, mode="clip")
                np.bitwise_xor(nxt[: 4 - i], g[i:], out=nxt[: 4 - i])
                np.bitwise_xor(nxt[4 - i :], g[:i], out=nxt[4 - i :])
            s, nxt = nxt, s
        out[...] = s.T

    def encrypt_bytes(self, plaintext: bytes) -> bytes:
        """Encrypt a byte string whose length is a multiple of 16 (ECB)."""
        data = blocks.from_bytes(plaintext)
        return blocks.to_bytes(self.encrypt_blocks(data))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AES128(key={self.key.hex()})"
