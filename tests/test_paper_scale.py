"""Paper-scale (Table 4) end-to-end runs -- excluded from the default
suite via the ``slow`` marker; run explicitly with ``-m slow``.

ROADMAP item: drive a Table 4 parameter set end-to-end.  The 2^20 row
runs a real setup (128 PKC OTs IKNP-extended to ~170k base COTs -- the
Init cost Figure 1(b) amortizes; it was ~170k PKC OTs and tens of
minutes before the extension) plus one extend through the provisioning
service, then checks the COT invariant and the
net-output accounting.
"""

import threading
import time

import numpy as np
import pytest

from repro.ferret.config import FerretConfig
from repro.ot.channel import LocalChannel
from repro.ot.cot import verify_cot
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning

#: One hour of patience everywhere: the point of the run is throughput
#: accounting, not latency.
PATIENCE = 3600.0


@pytest.mark.slow
def test_table4_2pow20_through_service():
    cfg = FerretConfig.paper("2^20", arity=4, prg_kind="chacha8")
    tuning = ServiceTuning(
        # Forward direction only: the Table 4 rows measure one COT
        # stream, and reverse would double the setup for nothing.
        enable_reverse=False,
        enable_triples=False,
        enable_rots=False,
        cot_low=1,
        cot_high=cfg.net_output,
        take_timeout_s=PATIENCE,
    )
    base_a, base_b = LocalChannel.pair(timeout=PATIENCE)
    mux0 = MuxChannel(base_a, timeout=PATIENCE)
    mux1 = MuxChannel(base_b, timeout=PATIENCE)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=0x2020).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=0x2020).start()
    svc0.wait_ready(PATIENCE)
    svc1.wait_ready(PATIENCE)

    # Draw one extend's worth minus one, so exactly one extend serves
    # the demand (leaving level == cot_low afterwards).
    n_draw = cfg.net_output - 1
    out = {}

    def consumer(party, svc):
        (out[party],), _ = svc.session("table4").draw([("cot/fwd", (), n_draw)])

    t0 = threading.Thread(target=consumer, args=(0, svc0))
    t1 = threading.Thread(target=consumer, args=(1, svc1))
    t0.start(), t1.start()
    t0.join(PATIENCE), t1.join(PATIENCE)
    assert 0 in out and 1 in out, (svc0.error, svc1.error)
    svc0.stop(60.0)
    svc1.stop(60.0)

    # Correlation check over the full paper-sized draw.
    assert verify_cot(out[0], out[1])
    # Choice bits of a million-COT batch must look uniform.
    assert 0.49 < out[1].x.mean() < 0.51

    # net_output accounting: one extend produced exactly n - (k + spcot)
    # usable COTs, and the stats agree on both parties.
    assert svc0.extends == {"fwd": 1, "rev": 0}
    assert svc1.extends == {"fwd": 1, "rev": 0}
    for svc in (svc0, svc1):
        stats = svc.ferret_fwd.last_stats
        assert stats.n_output == cfg.net_output
        assert stats.n_output == cfg.params.n - cfg.params.k - cfg.spcot_cots
        assert stats.prg_calls > 0
    pool = svc0.pools["cot/fwd"]
    assert pool.produced == cfg.net_output
    assert pool.reserved == n_draw
    assert np.int64(pool.level) == 1

    mux0.close(), mux1.close()


@pytest.mark.slow
def test_table4_2pow20_through_4shard_service():
    """The same Table 4 2^20 row, produced by a 4-shard service.

    Setup is one base-COT run in the parents covering all 4 shards'
    first iterations; the assertions shift from the parent endpoints (which
    never extend in sharded mode) to the merged pool accounting and the
    per-shard telemetry.
    """
    shards = 4
    cfg = FerretConfig.paper("2^20", arity=4, prg_kind="chacha8")
    tuning = ServiceTuning(
        shards=shards,
        enable_reverse=False,
        enable_triples=False,
        enable_rots=False,
        cot_low=1,
        cot_high=cfg.net_output,
        take_timeout_s=PATIENCE,
    )
    base_a, base_b = LocalChannel.pair(timeout=PATIENCE)
    mux0 = MuxChannel(base_a, timeout=PATIENCE)
    mux1 = MuxChannel(base_b, timeout=PATIENCE)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=0x2020).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=0x2020).start()
    svc0.wait_ready(PATIENCE)
    svc1.wait_ready(PATIENCE)

    n_draw = cfg.net_output - 1
    out = {}

    def consumer(party, svc):
        (out[party],), _ = svc.session("table4-sharded").draw(
            [("cot/fwd", (), n_draw)]
        )

    t0 = threading.Thread(target=consumer, args=(0, svc0))
    t1 = threading.Thread(target=consumer, args=(1, svc1))
    t0.start(), t1.start()
    t0.join(PATIENCE), t1.join(PATIENCE)
    assert 0 in out and 1 in out, (svc0.error, svc1.error)

    assert verify_cot(out[0], out[1])
    assert 0.49 < out[1].x.mean() < 0.51

    # Merged-pool accounting: every landed extend contributes exactly
    # net_output columns, and the per-shard counters own all of them.
    # Let any extend still in flight at draw-completion land first.
    tel0 = svc0.telemetry()
    deadline = time.monotonic() + 600.0
    while tel0.get("shard/inflight/fwd", 0) and time.monotonic() < deadline:
        time.sleep(0.5)
        tel0 = svc0.telemetry()
    assert tel0["shard/shards"] == shards
    per_shard = [tel0[f"shard/{i}/extends"] for i in range(shards)]
    assert sum(per_shard) == svc0.extends["fwd"] >= 1
    pool = svc0.pools["cot/fwd"]
    assert pool.produced == svc0.extends["fwd"] * cfg.net_output
    assert pool.reserved == n_draw

    svc0.stop(120.0)
    svc1.stop(120.0)
    mux0.close(), mux1.close()
