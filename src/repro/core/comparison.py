"""Cross-platform comparison helpers (CPU / GPU / Ironman).

Backs Figure 12's summary numbers and the abstract's headline claims:
OTE throughput speedups per configuration, the GPU comparison, and
the power-efficiency ratio.
"""

from __future__ import annotations

from repro.baselines.cpu import DEFAULT_CPU, CpuModel
from repro.baselines.gpu import DEFAULT_GPU, GpuModel
from repro.lpn.params import TABLE4, LpnParams
from repro.nmp.accelerator import IronmanAccelerator
from repro.nmp.config import NmpConfig
from repro.sim.energy import nmp_overhead
from repro.utils.units import KIB

#: Total OT budget used by Figure 12 (2^25 correlations).
FIG12_TOTAL_OTS = 1 << 25


def figure12_sweep(
    cache_bytes_options=(256 * KIB, 1024 * KIB),
    rank_options=(2, 4, 8, 16),
    param_sets=TABLE4,
    total_ots: int = FIG12_TOTAL_OTS,
    cpu: CpuModel = DEFAULT_CPU,
    gpu: GpuModel = DEFAULT_GPU,
) -> list:
    """The full Figure 12 grid.

    Returns dict rows: cache_kb, ranks, param label, cpu/gpu/ironman
    latency, speedups.
    """
    rows = []
    for cache_bytes in cache_bytes_options:
        for ranks in rank_options:
            config = NmpConfig(cache_bytes=cache_bytes).with_ranks(ranks)
            accel = IronmanAccelerator(config)
            for params in param_sets:
                cpu_s = cpu.latency_for(params, total_ots)
                gpu_s = gpu.latency_for(params, total_ots)
                ours_s = accel.latency_for(params, total_ots)
                rows.append(
                    {
                        "cache_kb": cache_bytes // KIB,
                        "ranks": ranks,
                        "params": params.label,
                        "cpu_s": cpu_s,
                        "gpu_s": gpu_s,
                        "ironman_s": ours_s,
                        "speedup_vs_cpu": cpu_s / ours_s,
                        "speedup_vs_gpu": gpu_s / ours_s,
                    }
                )
    return rows


def speedup_band(rows, cache_kb: int, ranks: int) -> tuple:
    """(min, max) speedup over CPU for one Figure 12 cell."""
    cell = [r["speedup_vs_cpu"] for r in rows if r["cache_kb"] == cache_kb and r["ranks"] == ranks]
    return min(cell), max(cell)


def gpu_comparison(
    config: NmpConfig, params: LpnParams, total_ots: int = FIG12_TOTAL_OTS
) -> dict:
    """Ironman vs the A6000: latency and power ratios (Section 6.1)."""
    accel = IronmanAccelerator(config)
    ours = accel.latency_for(params, total_ots)
    gpu = DEFAULT_GPU.latency_for(params, total_ots)
    ironman_power = config.n_dimms * nmp_overhead(config.cache_bytes).power_w
    return {
        "latency_ratio": gpu / ours,
        "power_ratio": DEFAULT_GPU.power_w / ironman_power,
        "ironman_power_w": ironman_power,
        "gpu_power_w": DEFAULT_GPU.power_w,
    }
