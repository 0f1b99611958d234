"""Correlation-robust hash function (CRHF).

COT correlations all share one global Delta, so before they can mask
actual messages they are passed through a hash that breaks the
correlation (Figure 2 of the paper; [IKNP03]).  We use the standard
MMO (Matyas-Meyer-Oseas) construction over fixed-key AES, exactly as
the EMP toolkit that Ferret builds on:

    H(x) = AES_K(sigma(x)) XOR sigma(x)

where ``sigma(a || b) = (a XOR b) || a`` is a linear orthomorphism on
64-bit halves.  A tweaked form folds a per-instance index into the
input, which is how many parallel OTs can share one hash key.

Every COT a PPML layer consumes passes through here.  The cipher is
libcrypto's AES-128 (AES-NI where the CPU has it, ~10 ns per block in a
large batch), so a call costs mostly its fixed numpy overhead: tweak
and sigma are folded into one ``(n, 2)`` buffer and the feed-forward is
XORed into the cipher's output in place.
``tests/oracles.py::crhf_hash_reference`` is the step-by-step form.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.aes import AES128
from repro.errors import ParameterError

_DEFAULT_KEY = bytes.fromhex("0f1e2d3c4b5a69788796a5b4c3d2e1f0")


def sigma(x: np.ndarray) -> np.ndarray:
    """The orthomorphism sigma(a || b) = (a XOR b) || a on 64-bit halves."""
    out = np.empty_like(x)
    np.bitwise_xor(x[:, 0], x[:, 1], out=out[:, 0])
    out[:, 1] = x[:, 0]
    return out


class Crhf:
    """Fixed-key MMO correlation-robust hash over 128-bit blocks."""

    def __init__(self, key: bytes = _DEFAULT_KEY):
        self._cipher = AES128(key)

    def _mmo(self, s: np.ndarray) -> np.ndarray:
        """``AES(s) XOR s``, the feed-forward XORed into the cipher's output."""
        out = self._cipher.encrypt_blocks(s)
        out ^= s
        return out

    def hash(self, x: np.ndarray) -> np.ndarray:
        """Hash a block array elementwise."""
        return self._mmo(sigma(blocks.require_blocks(x, "x")))

    def hash_tweaked(self, x: np.ndarray, tweaks: np.ndarray) -> np.ndarray:
        """Hash with a per-element 64-bit tweak (e.g. the OT index).

        ``tweaks`` must be one per block, shape ``(n,)``: a scalar would
        broadcast, and every OT of the batch would then share one tweak.
        """
        blocks.require_blocks(x, "x")
        tweaks = np.asarray(tweaks, dtype=np.uint64)
        if tweaks.shape != x.shape[:1]:
            raise ParameterError(
                f"tweaks must have shape {x.shape[:1]}, got {tweaks.shape}"
            )
        s = sigma(x)
        s[:, 0] ^= tweaks  # the tweak sits in x's high half, which sigma folds low
        return self._mmo(s)


#: Shared default instance; protocols that need domain separation build
#: their own with a distinct key.
DEFAULT_CRHF = Crhf()
