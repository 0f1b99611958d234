"""Host fingerprint and calibration, stored with every result so rows
from different runners can be told apart (and normalised)."""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
import time

import numpy as np

#: Working set of the XOR calibration kernel: larger than any L2 here,
#: so the figure tracks memory bandwidth like the LPN gather does.
_XOR_BYTES = 32 << 20


def xor_gbps(repeats: int = 5) -> float:
    """Best-of-N throughput of ``a ^= b`` over two 32 MiB uint64 arrays,
    counted as bytes read + written (3 x the array size per pass)."""
    a = np.arange(_XOR_BYTES // 8, dtype=np.uint64)
    b = a[::-1].copy()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.bitwise_xor(a, b, out=a)
        best = min(best, time.perf_counter() - start)
    return 3 * _XOR_BYTES / best / 1e9


def fingerprint(load1: float) -> dict:
    """``load1`` is the figure taken before the run started loading the host."""
    return {
        "nproc": os.cpu_count() or 1,
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [],
        "load1": load1,
        "xor_gbps": xor_gbps(),
        "numba": int(importlib.util.find_spec("numba") is not None),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def load1_checked() -> float:
    """The 1-minute load average now.  A busy host inflates every timing:
    say so, do not fail."""
    load1, nproc = os.getloadavg()[0], os.cpu_count() or 1
    if load1 > 0.5 * nproc:
        print(
            f"warning: load1 {load1:.2f} > 0.5 x nproc ({nproc}); "
            "timings in this run are suspect",
            file=sys.stderr,
        )
    return load1
