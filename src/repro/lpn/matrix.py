"""The 10-local LPN code matrix A (Section 2.3.2).

``A`` is a k x n bit matrix where every column holds exactly
``LPN_LOCALITY`` (10) non-zero entries; computing one output block is
the XOR of 10 randomly indexed blocks of the length-k input vector.
Because elements live in {0, 1}, the whole matrix is represented as a
single ``(n, d)`` int32 index array ("Colidx" in the paper's CSR
discussion) -- the object the NMP rank modules stream from DRAM.

The matrix is expanded deterministically from a public seed (both
parties regenerate it locally; it is fixed across all iterations,
which is what makes offline index sorting pay off).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.lpn.params import LPN_LOCALITY

#: Bytes per index entry when stored in DRAM (int32, as in the paper's
#: >900 MB footprint discussion).
INDEX_BYTES = 4


class LpnMatrix:
    """Index representation of the d-local LPN matrix."""

    def __init__(self, indices: np.ndarray, k: int):
        indices = np.asarray(indices, dtype=np.int32).view()
        if indices.ndim != 2:
            raise ParameterError("indices must be a (n, d) array")
        if indices.size and (indices.min() < 0 or indices.max() >= k):
            raise ParameterError("matrix indices out of range [0, k)")
        # Read-only (the view leaves a caller's own array writable): the
        # encode kernel gathers unchecked on the strength of the test above.
        indices.setflags(write=False)
        self.indices = indices
        self.k = k

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def d(self) -> int:
        return self.indices.shape[1]

    @property
    def storage_bytes(self) -> int:
        """DRAM footprint of the Colidx array."""
        return self.indices.size * INDEX_BYTES

    def permuted_columns(self, perm: np.ndarray) -> "LpnMatrix":
        """Apply a column relabeling: index i becomes perm[i].

        Callers must permute the input vector with the same ``perm``
        (the paper's "vector permutation" note in Section 5.3).
        """
        perm = np.asarray(perm, dtype=np.int32)
        if perm.shape[0] != self.k:
            raise ParameterError("permutation length must equal k")
        return LpnMatrix(perm[self.indices], self.k)

    def access_stream(self) -> np.ndarray:
        """Row-major flattened access sequence (the baseline trace)."""
        return self.indices.reshape(-1)


def generate_matrix(n: int, k: int, seed: int, d: int = LPN_LOCALITY) -> LpnMatrix:
    """Deterministically expand the public LPN matrix from ``seed``.

    Indices are sampled uniformly with replacement per column, matching
    Ferret's uniform d-local code (duplicate indices inside one column
    cancel in GF(2); all three parties' encodes use the identical
    matrix, so correctness is unaffected).
    """
    if k <= 0 or n <= 0:
        raise ParameterError("n and k must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, k, d]))
    indices = rng.integers(0, k, size=(n, d), dtype=np.int32)
    return LpnMatrix(indices, k)
