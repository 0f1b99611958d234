"""The P-256 group of the PKC base OTs, on the host's libcrypto.

PCG-style OTE needs a handful of public-key base OTs in its one-time
initialization (the "Init" bar in Figure 1(b)).  They run on the NIST
P-256 curve (``prime256v1``: 128-bit security, prime order, cofactor 1)
through a thin :mod:`ctypes` binding to OpenSSL's ``EC_GROUP`` /
``EC_POINT`` API, whose scalar multiplication on this curve is
constant-time.  In additive notation:

- :meth:`P256.random_scalar` draws a scalar in [1, n);
- :meth:`P256.base_mul`, :meth:`P256.mul`, :meth:`P256.add` and
  :meth:`P256.neg` are the group operations on :class:`Point` objects;
- :meth:`P256.encode` / :meth:`P256.decode` are the one wire format of a
  point: SEC1 compressed, 33 bytes (0x02 or 0x03 for the parity of y,
  then x big-endian).  The decoder refuses, as a
  :class:`~repro.errors.ProtocolError`, anything that is not a point of
  the group: a wrong length, another prefix byte, x >= p, an x with no
  square root, the point at infinity;
- :meth:`P256.hash_to_key` is the SHA-256 KDF over that encoding.

The curve constants (p, a, b, n and G) are read back from the library,
never restated here.  Scalars are Python ints; each thread uses its own
``BN_CTX`` and scratch ``BIGNUM`` (ctypes drops the GIL, and both
parties' threads share :data:`DEFAULT_GROUP`), freed when the thread
ends.  :data:`DEFAULT_GROUP` is the only group the base OTs use.
"""

from __future__ import annotations

import ctypes
import hashlib
import secrets
import threading

from repro.crypto.libcrypto import bind
from repro.errors import ParameterError, ProtocolError

_vp = ctypes.c_void_p
_BN_new = bind("BN_new", _vp)
_BN_clear_free = bind("BN_clear_free", None, _vp)
_BN_bin2bn = bind("BN_bin2bn", _vp, ctypes.c_char_p, ctypes.c_int, _vp)
_BN_bn2binpad = bind("BN_bn2binpad", ctypes.c_int, _vp, ctypes.c_char_p, ctypes.c_int)
_BN_num_bits = bind("BN_num_bits", ctypes.c_int, _vp)
_BN_CTX_new = bind("BN_CTX_new", _vp)
_BN_CTX_free = bind("BN_CTX_free", None, _vp)
_ERR_clear_error = bind("ERR_clear_error", None)
_EC_GROUP_new_by_curve_name = bind("EC_GROUP_new_by_curve_name", _vp, ctypes.c_int)
_EC_GROUP_get_curve = bind("EC_GROUP_get_curve", ctypes.c_int, _vp, _vp, _vp, _vp, _vp)
_EC_GROUP_get0_order = bind("EC_GROUP_get0_order", _vp, _vp)
_EC_GROUP_get0_generator = bind("EC_GROUP_get0_generator", _vp, _vp)
_EC_POINT_new = bind("EC_POINT_new", _vp, _vp)
_EC_POINT_free = bind("EC_POINT_free", None, _vp)
_EC_POINT_dup = bind("EC_POINT_dup", _vp, _vp, _vp)
_EC_POINT_mul = bind("EC_POINT_mul", ctypes.c_int, _vp, _vp, _vp, _vp, _vp, _vp)
_EC_POINT_add = bind("EC_POINT_add", ctypes.c_int, _vp, _vp, _vp, _vp, _vp)
_EC_POINT_invert = bind("EC_POINT_invert", ctypes.c_int, _vp, _vp, _vp)
_EC_POINT_is_at_infinity = bind("EC_POINT_is_at_infinity", ctypes.c_int, _vp, _vp)
_EC_POINT_point2oct = bind(
    "EC_POINT_point2oct", ctypes.c_size_t, _vp, _vp, ctypes.c_int, _vp, ctypes.c_size_t, _vp
)
_EC_POINT_oct2point = bind(
    "EC_POINT_oct2point", ctypes.c_int, _vp, _vp, ctypes.c_char_p, ctypes.c_size_t, _vp
)

#: OpenSSL's ``NID_X9_62_prime256v1`` and ``POINT_CONVERSION_COMPRESSED``.
_NID_PRIME256V1 = 415
_COMPRESSED = 2


def _bn_to_int(bn) -> int:
    size = (_BN_num_bits(bn) + 7) // 8
    buf = ctypes.create_string_buffer(size)
    _BN_bn2binpad(bn, buf, size)
    return int.from_bytes(buf.raw, "big")


def _require(ok: int, what: str) -> None:
    if ok != 1:
        _ERR_clear_error()
        raise RuntimeError(f"libcrypto refused {what}")


class Point:
    """One point of the curve: an ``EC_POINT``, freed with this object."""

    __slots__ = ("ptr",)
    _free = _EC_POINT_free  # still bound when __del__ runs at exit

    def __init__(self, ptr: int):
        self.ptr = ptr

    def __del__(self):
        self._free(self.ptr)


class _Scratch:
    """One thread's ``BN_CTX`` and scalar ``BIGNUM``."""

    _ctx_free = _BN_CTX_free
    _bn_free = _BN_clear_free

    def __init__(self):
        self.ctx = _BN_CTX_new()
        self.bn = _BN_new()
        if not (self.ctx and self.bn):
            raise MemoryError("BN_CTX_new / BN_new failed")

    def __del__(self):
        self._bn_free(self.bn)
        self._ctx_free(self.ctx)


class P256:
    """The NIST P-256 group (``prime256v1``) on libcrypto."""

    name = "prime256v1"
    #: Wire bytes of one point (SEC1 compressed).
    width = 33

    def __init__(self):
        self._group = _EC_GROUP_new_by_curve_name(_NID_PRIME256V1)
        if not self._group:
            raise RuntimeError("libcrypto has no prime256v1 curve")
        self._local = threading.local()
        scratch = self._scratch()
        p, a, b = _BN_new(), _BN_new(), _BN_new()
        try:
            _require(_EC_GROUP_get_curve(self._group, p, a, b, scratch.ctx), "EC_GROUP_get_curve")
            #: Field prime and curve coefficients: y^2 = x^3 + a x + b (mod p).
            self.p, self.a, self.b = map(_bn_to_int, (p, a, b))
        finally:
            for bn in (p, a, b):
                _BN_clear_free(bn)
        #: Prime order n of the group (the cofactor is 1).
        self.order = _bn_to_int(_EC_GROUP_get0_order(self._group))
        #: The generator G.
        self.generator = self._point(
            _EC_POINT_dup(_EC_GROUP_get0_generator(self._group), self._group)
        )

    def _scratch(self) -> _Scratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch()
        return scratch

    @staticmethod
    def _point(ptr) -> Point:
        if not ptr:
            raise MemoryError("EC_POINT allocation failed")
        return Point(ptr)

    def random_scalar(self) -> int:
        """A uniform scalar in [1, n)."""
        return 1 + secrets.randbelow(self.order - 1)

    def _mul(self, point, k: int) -> Point:
        scratch = self._scratch()
        _BN_bin2bn(k.to_bytes(32, "big"), 32, scratch.bn)
        out = self._point(_EC_POINT_new(self._group))
        if point is None:  # k G, on the library's precomputed generator table
            ok = _EC_POINT_mul(self._group, out.ptr, scratch.bn, None, None, scratch.ctx)
        else:
            ok = _EC_POINT_mul(self._group, out.ptr, None, point.ptr, scratch.bn, scratch.ctx)
        _require(ok, "EC_POINT_mul")
        return out

    def base_mul(self, k: int) -> Point:
        """k G, for 0 <= k < 2^256."""
        return self._mul(None, k)

    def mul(self, point: Point, k: int) -> Point:
        """k P, for 0 <= k < 2^256."""
        return self._mul(point, k)

    def add(self, p: Point, q: Point) -> Point:
        """P + Q."""
        out = self._point(_EC_POINT_new(self._group))
        ok = _EC_POINT_add(self._group, out.ptr, p.ptr, q.ptr, self._scratch().ctx)
        _require(ok, "EC_POINT_add")
        return out

    def neg(self, point: Point) -> Point:
        """-P."""
        out = self._point(_EC_POINT_dup(point.ptr, self._group))
        _require(_EC_POINT_invert(self._group, out.ptr, self._scratch().ctx), "EC_POINT_invert")
        return out

    def is_infinity(self, point: Point) -> bool:
        """Whether ``point`` is the identity O."""
        return _EC_POINT_is_at_infinity(self._group, point.ptr) == 1

    def point_bytes(self, point: Point) -> bytes:
        """SEC1 compressed encoding of ``point``: :attr:`width` bytes, or
        the single byte 0x00 for the point at infinity."""
        buf = ctypes.create_string_buffer(self.width)
        size = _EC_POINT_point2oct(
            self._group, point.ptr, _COMPRESSED, buf, self.width, self._scratch().ctx
        )
        if size == 0:
            _require(0, "EC_POINT_point2oct")
        return buf.raw[:size]

    def encode(self, points) -> bytes:
        """The wire format of ``points``: :attr:`width` bytes each,
        concatenated.  The point at infinity has none."""
        out = []
        for point in points:
            data = self.point_bytes(point)
            if len(data) != self.width:
                raise ParameterError("the point at infinity has no wire encoding")
            out.append(data)
        return b"".join(out)

    def decode(self, data: bytes, n: int) -> list:
        """The ``n`` points :meth:`encode` made ``data`` from.  Anything
        else is a :class:`ProtocolError` naming the element: a wrong
        length, a prefix byte other than 0x02 / 0x03 (a 0x00 prefix is
        the encoding of the point at infinity), x >= p, or an x with no
        square root (no point of the curve)."""
        width = self.width
        if len(data) != n * width:
            raise ProtocolError(
                f"{n} group elements must be {n * width} bytes, got {len(data)}"
            )
        data = bytes(data)
        ctx = self._scratch().ctx
        out = []
        for i in range(n):
            element = data[i * width : (i + 1) * width]
            if element[0] not in (2, 3):
                raise ProtocolError(
                    f"group element {i} of {n} has prefix 0x{element[0]:02x}, "
                    "not 0x02 / 0x03 (a compressed point)"
                )
            if int.from_bytes(element[1:], "big") >= self.p:
                raise ProtocolError(f"group element {i} of {n} has x >= p")
            point = self._point(_EC_POINT_new(self._group))
            if _EC_POINT_oct2point(self._group, point.ptr, element, width, ctx) != 1:
                _ERR_clear_error()
                raise ProtocolError(f"group element {i} of {n} is not on the curve")
            if self.is_infinity(point):
                raise ProtocolError(f"group element {i} of {n} is the point at infinity")
            out.append(point)
        return out

    def hash_to_key(self, point: Point, tweak: bytes = b"") -> bytes:
        """Derive a 16-byte symmetric key from a point (KDF): SHA-256 of
        its :meth:`point_bytes` and ``tweak``."""
        return hashlib.sha256(self.point_bytes(point) + tweak).digest()[:16]


#: The group of every base OT.
DEFAULT_GROUP = P256()
