"""Online two-party protocols on top of the OT substrate (Section 2.2).

The paper's framing: OT extension runs in the *pre-processing* phase;
the *online* phase evaluates nonlinear functions on secret shares
using those correlations.  This package implements that online layer
from scratch -- additive/boolean sharing, Beaver bit triples, the
OT-based millionaires' comparison, and DReLU/ReLU -- so the repository
contains a working end-to-end PPML nonlinear stack, not just the
correlation generator.
"""

from repro.mpc.sharing import (
    ArithmeticShares,
    BooleanShares,
    reconstruct_arith,
    reconstruct_bool,
    share_arith,
    share_bool,
)
from repro.mpc.triples import BitTriples, MatrixTriples, generate_bit_triples
from repro.mpc.compare import millionaire_p0, millionaire_p1
from repro.mpc.matmul import (
    FIG16_DIMS,
    MatmulDims,
    generate_matrix_triples,
    matmul_cots,
    matmul_online,
    matmul_via_service,
)
from repro.mpc.maxpool import max_pair
from repro.mpc.relu import drelu_pair, relu_pair
from repro.mpc.truncation import (
    FixedPointConfig,
    trunc_via_service,
    truncate_shares,
)

__all__ = [
    "ArithmeticShares",
    "BitTriples",
    "BooleanShares",
    "FIG16_DIMS",
    "FixedPointConfig",
    "trunc_via_service",
    "truncate_shares",
    "MatmulDims",
    "MatrixTriples",
    "drelu_pair",
    "generate_bit_triples",
    "generate_matrix_triples",
    "matmul_cots",
    "matmul_online",
    "matmul_via_service",
    "max_pair",
    "millionaire_p0",
    "millionaire_p1",
    "reconstruct_arith",
    "reconstruct_bool",
    "relu_pair",
    "share_arith",
    "share_bool",
]
