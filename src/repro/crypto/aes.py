"""Fixed-key AES-128 on the host's OpenSSL ``libcrypto`` (AES-NI where the
CPU has it).

The PCG-style OT extension baseline instantiates its PRG with AES
because of AES-NI on CPUs (Section 2.3.1 of the paper):

    G(s) = AES_k0(s) XOR s  ||  AES_k1(s) XOR s

and the correlation-robust hash (:mod:`repro.crypto.crhf`) is the same
fixed-key cipher.  :meth:`AES128.encrypt_blocks` hands a whole
``(n, 2)`` uint64 block array to ``EVP_EncryptUpdate`` (AES-128-ECB, no
padding) through :mod:`ctypes`, on the ``libcrypto`` that Python's own
``hashlib`` links, and the cipher writes straight into the output
array.  A host without that library fails at import.

ctypes releases the GIL for the call, and one instance is shared by
both parties' threads (``DEFAULT_CRHF``), so every thread keys its own
cipher context per instance; a context is freed when its thread ends
or its instance is collected.

Only encryption is exposed: every use in this package (PRG, CRHF) is
encrypt-only, as in the Ferret/EMP codebase.  The pure-numpy FIPS-197
formulation, with its S-box and key schedule, is the reference in
``tests/oracles.py``.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from repro.crypto import blocks
from repro.crypto.libcrypto import bind
from repro.errors import ParameterError

_vp = ctypes.c_void_p
_EVP_aes_128_ecb = bind("EVP_aes_128_ecb", _vp)
_EVP_CIPHER_CTX_new = bind("EVP_CIPHER_CTX_new", _vp)
_EVP_CIPHER_CTX_free = bind("EVP_CIPHER_CTX_free", None, _vp)
_EVP_EncryptInit_ex = bind(
    "EVP_EncryptInit_ex", ctypes.c_int, _vp, _vp, _vp, ctypes.c_char_p, _vp
)
_EVP_CIPHER_CTX_set_padding = bind("EVP_CIPHER_CTX_set_padding", ctypes.c_int, _vp, ctypes.c_int)
_EVP_EncryptUpdate = bind(
    "EVP_EncryptUpdate", ctypes.c_int, _vp, _vp, ctypes.POINTER(ctypes.c_int), _vp, ctypes.c_int
)
_ECB = _EVP_aes_128_ecb()

#: Blocks per ``EVP_EncryptUpdate`` call: its length is a C ``int`` of
#: bytes, so larger batches go through in slices of this many blocks.
UPDATE_BLOCKS = 1 << 24


def _address(array: np.ndarray) -> int:
    """Base address of a non-empty C-contiguous array: through a ctypes
    view of its buffer when it is writable (~0.4 us; ``ndarray.ctypes``
    builds an object per lookup, ~1.2 us)."""
    if array.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


class _Context:
    """One thread's ``EVP_CIPHER_CTX``, keyed for one :class:`AES128`."""

    _free = _EVP_CIPHER_CTX_free  # still bound when __del__ runs at exit

    def __init__(self, key: bytes):
        self.ptr = _EVP_CIPHER_CTX_new()
        if not self.ptr:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        self.written = ctypes.c_int()
        if (
            _EVP_EncryptInit_ex(self.ptr, _ECB, None, key, None) != 1
            or _EVP_CIPHER_CTX_set_padding(self.ptr, 0) != 1
        ):
            raise RuntimeError("libcrypto refused to key AES-128-ECB")

    def __del__(self):
        self._free(self.ptr)


class AES128:
    """A fixed-key AES-128 instance with a batch encryption kernel."""

    def __init__(self, key: bytes):
        self.key = bytes(key)
        if len(self.key) != 16:
            raise ParameterError(f"AES-128 key must be 16 bytes, got {len(self.key)}")
        self._local = threading.local()
        self._context()  # a bad key or a broken library fails here, not mid-protocol

    def _context(self) -> _Context:
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            ctx = self._local.ctx = _Context(self.key)
        return ctx

    def encrypt_blocks(self, data: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Encrypt a block array (shape (n, 2) uint64) under this key;
        ``data`` is only read.

        The ciphertext goes into ``out`` when given (a C-contiguous
        ``(n, 2)`` block array, which may be ``data`` itself) and into a
        fresh array otherwise; that array is returned.
        """
        src = blocks.require_blocks(np.ascontiguousarray(data, dtype=blocks.BLOCK_DTYPE), "data")
        n = src.shape[0]
        if out is None:
            out = np.empty(src.shape, dtype=blocks.BLOCK_DTYPE)
        elif not (
            blocks.is_block_array(out) and out.shape[0] == n and out.flags.c_contiguous
        ):
            raise ParameterError(f"out must be a C-contiguous ({n}, 2) block array")
        if n == 0:
            return out
        ctx = self._context()
        dst_at, src_at = _address(out), _address(src)
        for start in range(0, n, UPDATE_BLOCKS):
            inl = min(UPDATE_BLOCKS, n - start) * blocks.BLOCK_BYTES
            offset = start * blocks.BLOCK_BYTES
            ok = _EVP_EncryptUpdate(ctx.ptr, dst_at + offset, ctx.written, src_at + offset, inl)
            if ok != 1 or ctx.written.value != inl:
                raise RuntimeError("EVP_EncryptUpdate failed")
        return out

    def encrypt_bytes(self, plaintext: bytes) -> bytes:
        """Encrypt a byte string whose length is a multiple of 16 (ECB)."""
        data = blocks.from_bytes(plaintext)
        return blocks.to_bytes(self.encrypt_blocks(data))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AES128(key={self.key.hex()})"
