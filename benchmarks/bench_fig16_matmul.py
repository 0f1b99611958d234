"""Figure 16: secure MatMul with and without the unified architecture."""

import pytest

from repro.core.calibration import FIG16_COMM_REDUCTION, FIG16_LATENCY_REDUCTION
from repro.lpn.params import TABLE4_BY_LABEL
from repro.mpc.matmul import FIG16_DIMS
from repro.nmp.accelerator import IronmanAccelerator
from repro.nmp.config import IRONMAN_1MB
from repro.ppml.inference import IronmanOte
from repro.ppml.matmul import matmul_cost
from repro.ppml.network import LAN
from repro.utils.tables import print_table
from repro.utils.units import fmt_bytes


def test_fig16_unified_matmul(benchmark, once):
    provider = IronmanOte(TABLE4_BY_LABEL["2^22"], IronmanAccelerator(IRONMAN_1MB))

    def run():
        rows = []
        for dims in FIG16_DIMS:
            base = matmul_cost(dims, provider, LAN, unified=False)
            ours = matmul_cost(dims, provider, LAN, unified=True)
            rows.append((dims, base, ours))
        return rows

    rows = once(benchmark, run)
    print()
    print_table(
        ["MatMul dim", "comm w/o", "comm w/", "comm red.", "lat w/o", "lat w/", "lat red."],
        [
            [
                d.label,
                fmt_bytes(b.comm_bytes),
                fmt_bytes(o.comm_bytes),
                f"{b.comm_bytes / o.comm_bytes:.2f}x",
                f"{b.total_seconds * 1e3:.1f} ms",
                f"{o.total_seconds * 1e3:.1f} ms",
                f"{b.total_seconds / o.total_seconds:.2f}x",
            ]
            for d, b, o in rows
        ],
        title=f"Figure 16: unified architecture (paper: {FIG16_COMM_REDUCTION}x comm, "
        f"{FIG16_LATENCY_REDUCTION}x latency)",
    )
    for d, b, o in rows:
        assert b.comm_bytes / o.comm_bytes == pytest.approx(FIG16_COMM_REDUCTION, rel=0.01)
        lat_red = b.total_seconds / o.total_seconds
        assert FIG16_LATENCY_REDUCTION * 0.8 < lat_red <= FIG16_COMM_REDUCTION
    benchmark.extra_info["latency_reductions"] = [
        b.total_seconds / o.total_seconds for _, b, o in rows
    ]
