"""The host's OpenSSL ``libcrypto``, loaded once for every ctypes binding.

:mod:`repro.crypto.aes` (AES-128-ECB) and :mod:`repro.crypto.group`
(the P-256 curve of the base OTs) call the same library that Python's
own ``hashlib`` links.  A host without it fails at import; there is no
fallback.
"""

from __future__ import annotations

import ctypes
import ctypes.util

_PATH = ctypes.util.find_library("crypto")
if _PATH is None:
    raise ImportError("repro.crypto needs OpenSSL's libcrypto, which was not found")
lib = ctypes.CDLL(_PATH)


def bind(name: str, restype, *argtypes):
    """``lib.<name>`` with its C signature declared."""
    fn = getattr(lib, name)
    fn.restype = restype
    fn.argtypes = list(argtypes)
    return fn
