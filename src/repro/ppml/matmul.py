"""OT-based secure matrix multiplication with role switching (Fig 16).

PrivQuant-style quantized MatMul evaluates ``(m x k) @ (k x n)`` with
COT-based multiplication: each secret operand bit sources a batch of
correlations, and the direction (who plays OT sender) decides whether
communication scales with the activation or the weight operand.

Without a unified architecture, a party whose accelerator only
implements one role must run *both* directions from its fixed role,
paying both operands' traffic.  Ironman's unified unit lets each party
take the cheaper sending direction for its half of the product, which
halves communication (the paper measures 2x comm and 1.4x latency).
"""

from __future__ import annotations

from dataclasses import dataclass

# Canonical definitions live with the executable protocol
# (repro.mpc.matmul); the analytical model here prices the same counts
# and per-COT byte constant, so the two layers cannot silently diverge.
from repro.mpc.matmul import BYTES_PER_COT, DEFAULT_BITS, MatmulDims, matmul_cots
from repro.ppml.inference import OteProvider
from repro.ppml.network import NetworkModel


def matmul_comm_bytes(dims: MatmulDims, bits: int = DEFAULT_BITS, unified: bool = True) -> float:
    """Online communication of one secure MatMul.

    With the unified architecture each cross term is sent by the party
    for whom it is sender-side (one transmission per term).  A
    fixed-role accelerator must re-run the reverse-direction term
    through its only supported role, transmitting both operand
    encodings twice -- the 2x communication the paper measures.
    """
    factor = 1.0 if unified else 2.0
    return matmul_cots(dims, bits) * BYTES_PER_COT * factor


@dataclass(frozen=True)
class MatmulCost:
    """Latency/communication of one secure MatMul configuration."""

    dims: MatmulDims
    unified: bool
    cots: float
    comm_bytes: float
    ot_seconds: float
    comm_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.ot_seconds + self.comm_seconds


def matmul_cost(
    dims: MatmulDims,
    provider: OteProvider,
    network: NetworkModel,
    bits: int = DEFAULT_BITS,
    unified: bool = True,
) -> MatmulCost:
    """Price one secure MatMul under a provider/network pair."""
    cots = matmul_cots(dims, bits)
    comm = matmul_comm_bytes(dims, bits, unified)
    return MatmulCost(
        dims=dims,
        unified=unified,
        cots=cots,
        comm_bytes=comm,
        ot_seconds=provider.seconds_for(cots),
        comm_seconds=network.transfer_seconds(comm),
    )
