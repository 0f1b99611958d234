"""Schnorr group arithmetic and element format for the PKC base OTs.

PCG-style OTE needs a handful of public-key base OTs in its one-time
initialization (the "Init" bar in Figure 1(b)).  We implement the
group layer from scratch: the subgroup of quadratic residues modulo
the RFC 2409 Oakley Group 1 768-bit safe prime (prime order q), plus
exponentiation helpers and the one wire format of an element
(:meth:`SchnorrGroup.encode` / :meth:`SchnorrGroup.decode`).

768 bits is *not* a production-strength modulus; it keeps the
pure-Python base OT fast while exercising exactly the real protocol
flow.  :data:`DEFAULT_GROUP` is the only group the base OTs use.
"""

from __future__ import annotations

import hashlib
import secrets

from repro.errors import ParameterError, ProtocolError

#: RFC 2409 Oakley Group 1: 768-bit safe prime, generator 2.
OAKLEY_768_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF",
    16,
)

class FixedBaseExp:
    """Windowed fixed-base modular exponentiation.

    The base-OT Init computes many powers of the *same* base (the
    receiver raises ``g`` and the sender's element ``A`` once per OT),
    so a one-time table of ``base^(d * 2^(w*i)) mod p`` turns every
    later exponentiation into ~``exp_bits/w`` modular multiplications
    instead of a full square-and-multiply ladder (~0.35 ms instead of
    ~1.7 ms in the default group; the table costs ~7 ladders to build).
    """

    def __init__(self, base: int, modulus: int, exp_bits: int, window: int = 5):
        if window < 1 or exp_bits < 1:
            raise ParameterError("window and exponent width must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.exp_bits = exp_bits
        self.window = window
        radix = 1 << window
        self._radix_mask = radix - 1
        self._table = []
        g_pow = self.base  # base^(2^(window*i)) as i advances
        for _ in range((exp_bits + window - 1) // window):
            row = [1] * radix
            for d in range(1, radix):
                row[d] = (row[d - 1] * g_pow) % modulus
            self._table.append(row)
            g_pow = (row[radix - 1] * g_pow) % modulus
        self._cap = 1 << (len(self._table) * window)

    def exp(self, scalar: int) -> int:
        """base^scalar mod p (falls back to ``pow`` out of table range)."""
        if scalar < 0 or scalar >= self._cap:
            return pow(self.base, scalar, self.modulus)
        acc = 1
        i = 0
        while scalar:
            digit = scalar & self._radix_mask
            if digit:
                acc = (acc * self._table[i][digit]) % self.modulus
            scalar >>= self.window
            i += 1
        return acc


class SchnorrGroup:
    """The order-q subgroup of quadratic residues mod a safe prime p = 2q+1."""

    def __init__(self, p: int = OAKLEY_768_P, g: int = 2):
        if p % 2 == 0:
            raise ParameterError("modulus must be odd")
        self.p = p
        self.q = (p - 1) // 2
        # Square the generator so it lands in the QR subgroup of order q.
        self.g = pow(g, 2, p)
        #: Wire bytes of one element.
        self.width = (p.bit_length() + 7) // 8
        self._g_table = None  # fixed-base table, built on first gexp()

    def random_scalar(self) -> int:
        """Uniform exponent in [1, q)."""
        return 1 + secrets.randbelow(self.q - 1)

    def exp(self, base: int, scalar: int) -> int:
        """base^scalar mod p."""
        return pow(base, scalar, self.p)

    def gexp(self, scalar: int) -> int:
        """g^scalar mod p via the precomputed fixed-base window table.

        Equivalent to ``pow(g, scalar, p)`` for every scalar (the table
        covers exponents up to q; anything else falls back to ``pow``),
        but ~spends one multiplication per window instead of a full
        ladder -- the hot call of the base-OT receiver.
        """
        if self._g_table is None:
            self._g_table = self.fixed_base(self.g)
        return self._g_table.exp(scalar)

    def fixed_base(self, base: int) -> FixedBaseExp:
        """Window table for raising ``base`` to many scalars in [0, q]."""
        return FixedBaseExp(base, self.p, self.q.bit_length())

    def mul(self, a: int, b: int) -> int:
        """a * b mod p."""
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse mod p."""
        return pow(a, -1, self.p)

    def element_bytes(self, a: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        return a.to_bytes(self.width, "big")

    def encode(self, elements) -> bytes:
        """The wire format of ``elements``: :attr:`width` big-endian bytes
        each, concatenated."""
        return b"".join(map(self.element_bytes, elements))

    def decode(self, data: bytes, n: int) -> list:
        """The ``n`` elements :meth:`encode` made ``data`` from.  A wrong
        length, or a degenerate element (outside ``1 < x < p - 1``, the
        values that would pin a pad), is a :class:`ProtocolError`."""
        width = self.width
        if len(data) != n * width:
            raise ProtocolError(
                f"{n} group elements must be {n * width} bytes, got {len(data)}"
            )
        out = [int.from_bytes(data[i : i + width], "big") for i in range(0, n * width, width)]
        for i, x in enumerate(out):
            if not 1 < x < self.p - 1:
                raise ProtocolError(f"group element {i} of {n} is degenerate")
        return out

    def hash_to_key(self, element: int, tweak: bytes = b"") -> bytes:
        """Derive a 16-byte symmetric key from a group element (KDF)."""
        return hashlib.sha256(self.element_bytes(element) + tweak).digest()[:16]


#: The group of every base OT (fast enough for pure Python).
DEFAULT_GROUP = SchnorrGroup()
