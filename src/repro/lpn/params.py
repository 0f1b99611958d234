"""PCG-style OT-extension parameter sets (Table 4 of the paper).

A parameter set fixes the primal-LPN instance used by one Ferret
iteration: output length ``n``, secret dimension ``k`` (the number of
pre-generated COTs consumed), regular-noise weight ``t`` (the number
of GGM trees), and the binary-tree leaf budget ``l`` the paper quotes.
``n - k`` is the net COT yield, chosen so each set outputs ~2^20..2^24
usable OTs per execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.utils.bitops import next_power


@dataclass(frozen=True)
class LpnParams:
    """One row of Table 4."""

    label: str  # "2^20" .. "2^24"
    n: int  # LPN output length per execution
    ell: int  # GGM leaves per tree as quoted by the paper (binary arity)
    k: int  # pre-generated COT correlations consumed per execution
    t: int  # noise weight = number of GGM trees
    paper_security_bits: float  # Table 4's bit-security column

    def __post_init__(self):
        if not (0 < self.k < self.n):
            raise ParameterError("need 0 < k < n")
        if not (0 < self.t <= self.n):
            raise ParameterError("need 0 < t <= n")

    @property
    def usable_output(self) -> int:
        """Net new COTs per execution (the paper's '#OTs for output')."""
        return self.n - self.k

    @property
    def block_size(self) -> int:
        """Regular-noise block size (ceiling)."""
        return -(-self.n // self.t)

    def tree_leaves(self, arity: int = 2) -> int:
        """Leaf count of each GGM tree for the given expansion arity."""
        return max(next_power(self.block_size, arity), arity)

    def executions_for(self, total_ots: int) -> int:
        """Protocol executions needed to output ``total_ots`` COTs."""
        return -(-total_ots // self.usable_output)


#: Table 4, in paper order.  Labels name the per-execution output size.
TABLE4: tuple = (
    LpnParams("2^20", 1221516, 4096, 168000, 480, 139.8),
    LpnParams("2^21", 2365652, 4096, 262000, 600, 141.8),
    LpnParams("2^22", 4531924, 8192, 328000, 740, 132.3),
    LpnParams("2^23", 8866608, 8192, 452000, 1024, 130.2),
    LpnParams("2^24", 17262496, 8192, 480000, 2100, 135.4),
)

#: Table 4 indexed by label.
TABLE4_BY_LABEL = {p.label: p for p in TABLE4}

#: Number of non-zero entries per column of the LPN matrix (Section 2.3.2).
LPN_LOCALITY = 10


def scaled_params(scale: int = 64, label: str = "test") -> LpnParams:
    """A functionally-equivalent small parameter set for tests/examples.

    Shrinks the 2^20 set by ``scale`` in every dimension while keeping
    the regular-noise structure intact.  NOT cryptographically secure;
    the full Table 4 sets drive the performance models.
    """
    base = TABLE4[0]
    n = max(base.n // scale, 64)
    k = max(base.k // scale, 16)
    t = max(base.t // scale, 2)
    ell = max(next_power(-(-n // t), 2), 2)
    return LpnParams(label, n, ell, k, t, 0.0)
