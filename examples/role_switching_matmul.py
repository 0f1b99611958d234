#!/usr/bin/env python
"""Role switching for OT-based secure MatMul (Figure 16).

Ironman's unified unit lets the same party act as OT sender or
receiver, so each cross term of a secret-shared matrix product can be
transmitted by whichever side is cheaper.  This example prices the
paper's three layer shapes (BERT-Base / LLaMA projections at sequence
length 32) with and without the unified architecture.

Run:  python examples/role_switching_matmul.py
"""

from repro import IronmanSystem
from repro.mpc.matmul import FIG16_DIMS
from repro.ppml.matmul import matmul_cost
from repro.ppml.network import LAN
from repro.utils.tables import print_table
from repro.utils.units import fmt_bytes


def main():
    system = IronmanSystem()
    provider = system.ote_provider()
    rows = []
    for dims in FIG16_DIMS:
        with_u = matmul_cost(dims, provider, LAN, unified=True)
        without = matmul_cost(dims, provider, LAN, unified=False)
        rows.append(
            [
                dims.label,
                fmt_bytes(without.comm_bytes),
                fmt_bytes(with_u.comm_bytes),
                f"{without.comm_bytes / with_u.comm_bytes:.2f}x",
                f"{without.total_seconds * 1e3:.1f} ms",
                f"{with_u.total_seconds * 1e3:.1f} ms",
                f"{without.total_seconds / with_u.total_seconds:.2f}x",
            ]
        )
    print_table(
        ["MatMul dim", "comm w/o", "comm w/", "comm red.",
         "lat w/o", "lat w/", "lat red."],
        rows,
        title="Unified architecture: secure MatMul (paper: 2x comm, 1.4x latency)",
    )


if __name__ == "__main__":
    main()
