#!/usr/bin/env python
"""Quickstart: generate correlated OTs with the functional Ferret
protocol, verify the correlation, and price the same workload on the
Ironman accelerator vs the paper's CPU baseline.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    FerretConfig,
    IronmanSystem,
    TABLE4_BY_LABEL,
    ferret_pair,
    verify_cot,
)
from repro.baselines.cpu import DEFAULT_CPU
from repro.crypto import blocks
from repro.utils.units import fmt_bytes, fmt_seconds


def main():
    # ------------------------------------------------------------------
    # 1. Functional protocol: two in-memory parties extend 128 PKC base
    #    OTs into thousands of COT correlations.
    # ------------------------------------------------------------------
    config = FerretConfig.small(scale=512, arity=4, prg_kind="chacha8")
    p = config.params
    print(f"LPN parameters: n={p.n} k={p.k} t={p.t} (scaled-down test set)")
    print(f"base COTs per iteration: {config.base_cots_needed}")

    sender_out, receiver_out, s_stats, r_stats = ferret_pair(config, rounds=2)
    for i, (sb, rb) in enumerate(zip(sender_out, receiver_out)):
        ok = verify_cot(sb, rb)
        print(
            f"iteration {i}: {len(sb)} COTs, correlation "
            f"z = y XOR x*Delta holds: {ok}"
        )
        assert ok
    total_comm = s_stats.bytes_sent + r_stats.bytes_sent
    per_cot = total_comm / (2 * len(sender_out[0]))
    print(
        f"communication: {fmt_bytes(total_comm)} total "
        f"({per_cot:.1f} B per COT incl. one-time base OTs; "
        f"PCG-style OTE amortizes to sub-byte per COT at full scale)"
    )

    # Use a correlation: receiver's choice bit selects one of two pads.
    delta = sender_out[0].delta
    i = 0
    z = sender_out[0].z[i : i + 1]
    x, y = receiver_out[0].x[i], receiver_out[0].y[i : i + 1]
    selected = blocks.xor(y, blocks.mul_bit(delta, np.array([0]))) if not x else y
    print(f"first correlation: receiver bit={x}, blocks match: "
          f"{bool(np.all(blocks.equal(z, blocks.xor(selected, blocks.mul_bit(delta, np.array([x]))))))}")

    # ------------------------------------------------------------------
    # 2. Performance: the same protocol on Ironman vs the paper's CPU.
    # ------------------------------------------------------------------
    system = IronmanSystem()
    params = TABLE4_BY_LABEL["2^20"]
    total_ots = 1 << 25
    cpu_s = DEFAULT_CPU.latency_for(params, total_ots)
    ours_s = system.accelerator.latency_for(params, total_ots)
    print(f"\ngenerating 2^25 COTs with the {params.label} parameter set:")
    print(f"  CPU baseline (calibrated to Fig 1b): {fmt_seconds(cpu_s)}")
    print(f"  Ironman ({system.config.n_ranks} ranks, "
          f"{system.config.cache_bytes // 1024}KB cache): {fmt_seconds(ours_s)}")
    print(f"  speedup: {cpu_s / ours_s:.1f}x (paper band: 40.25x - 237.04x)")


if __name__ == "__main__":
    main()
