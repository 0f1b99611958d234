"""Degraded mode, resync, heartbeat, and restart: the service under fire."""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ChannelClosed,
    ChannelTimeout,
    PoolClosed,
    ServiceDegraded,
)
from repro.ferret.config import FerretConfig
from repro.ot.channel import LocalChannel
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
TUNING = ServiceTuning(
    triple_low=256, triple_high=1024, triple_chunk=512, rot_low=32, rot_high=128
)


def start_service_pair(tuning=TUNING, cfg=CFG, seed=0x0FA):
    base_a, base_b = LocalChannel.pair(timeout=120.0)
    mux0 = MuxChannel(base_a, timeout=120.0)
    mux1 = MuxChannel(base_b, timeout=120.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=seed).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=seed).start()
    return svc0, svc1


def wait_until(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"{what} not reached within {timeout}s")


def test_transient_fault_degrades_resyncs_and_recovers():
    """A command whose execution dies transiently on the leader: both
    parties degrade, run the resync barrier, and production resumes --
    later triples still satisfy c = a & b across the parties."""
    svc0, svc1 = start_service_pair()
    try:
        svc0.wait_ready()
        svc1.wait_ready()
        # Shorten the follower's abandoned-command stall so the test
        # does not wait out the paper-scale mux timeout.
        for channel in svc1._data_channels:
            channel.default_timeout = 3.0

        real_execute = svc0._execute
        tripped = threading.Event()

        def failing_execute(cmd):
            if not tripped.is_set():
                tripped.set()
                raise ChannelTimeout("injected command failure")
            real_execute(cmd)

        svc0._execute = failing_execute
        svc0._wake.set()  # make sure the scheduler issues a command

        wait_until(tripped.is_set, what="fault injection")
        wait_until(
            lambda: svc0.resyncs >= 1 and not svc0.degraded,
            what="leader resync",
        )
        wait_until(
            lambda: svc1.resyncs >= 1 and not svc1.degraded,
            what="follower resync",
        )
        assert svc0.degraded_events >= 1
        assert svc0.error is None and svc1.error is None

        # Production is alive again: draw fresh triples through real
        # sessions and check the cross-party Beaver relation.
        out = {}

        def draw(party, svc):
            (out[party],), _ = svc.session("after-fault").draw([("tri", (), 128)])

        t0 = threading.Thread(target=draw, args=(0, svc0))
        t1 = threading.Thread(target=draw, args=(1, svc1))
        t0.start(), t1.start()
        t0.join(60.0), t1.join(60.0)
        assert set(out) == {0, 1}, (
            f"draw hung (svc errors: {svc0.error!r}, {svc1.error!r})"
        )
        a = out[0].a ^ out[1].a
        b = out[0].b ^ out[1].b
        c = out[0].c ^ out[1].c
        assert np.array_equal(c, a & b)

        stats = svc0.retry_stats()
        assert stats["degraded_events"] >= 1
        assert stats["resyncs"] >= 1
    finally:
        svc0.stop()
        svc1.stop()


def test_degraded_pool_wait_raises_typed_error_with_hint():
    """While degraded, waits on future production surface ServiceDegraded
    (with a recovery hint) -- but existing stock still serves."""
    base_a, _ = LocalChannel.pair(timeout=5.0)
    mux = MuxChannel(base_a, timeout=5.0)
    svc = CorrelationService(0, mux, CFG, TUNING)  # never started
    svc._enter_degraded(ChannelClosed("link lost"))

    pool = svc.pools["tri"]
    stock = np.ones((3, 16), dtype=np.uint8)
    pool.append_columns(stock)

    # Stock draw: the range is produced, so no wait, no error.
    got = pool.take_columns(0, 8)
    assert got[0].shape[0] == 8

    # Future production: typed backpressure instead of a hang.
    with pytest.raises(ServiceDegraded, match="degraded") as exc_info:
        pool.take_columns(100, 8, timeout=5.0)
    assert "stock" in exc_info.value.hint
    assert isinstance(exc_info.value.cause, ChannelClosed)
    assert exc_info.value.since is not None
    mux.close()


def test_heartbeat_detects_silent_peer_death():
    """With heartbeats on, a silent peer kills blocked receivers in
    ~miss x interval instead of their full timeout."""
    base_a, _silent_peer = LocalChannel.pair(timeout=30.0)
    mux = MuxChannel(base_a, timeout=30.0, heartbeat_s=0.1, heartbeat_miss=3)
    sub = mux.sub("x")
    start = time.monotonic()
    with pytest.raises(ChannelClosed, match="heartbeat"):
        sub.recv_bytes(timeout=20.0)
    assert time.monotonic() - start < 5.0
    mux.close()


def test_worker_restart_once_then_fatal():
    base_a, _ = LocalChannel.pair(timeout=5.0)
    mux = MuxChannel(base_a, timeout=5.0)
    svc = CorrelationService(0, mux, CFG, TUNING)  # worker never started

    calls = []

    def dies_once():
        calls.append(1)
        if len(calls) == 1:
            raise ChannelClosed("transient loop death")

    svc._run_loop(dies_once)
    assert svc.worker_restarts == 1
    assert len(calls) == 2
    assert svc.degraded  # the restart entered degraded mode pending resync

    svc2 = CorrelationService(0, MuxChannel(LocalChannel.pair()[0]), CFG, TUNING)

    def always_dies():
        raise ChannelClosed("hard down")

    with pytest.raises(ChannelClosed):
        svc2._run_loop(always_dies)
    assert svc2.worker_restarts == 1  # restarted once, then fatal
    mux.close()


def test_pool_created_after_worker_exit_is_closed():
    """A keyed pool first touched after stop() must fail its draws the
    way every pre-existing pool does -- ``PoolClosed`` at once -- not
    burn ``take_timeout_s`` waiting on a producer that is gone."""
    import dataclasses

    tuning = dataclasses.replace(TUNING, take_timeout_s=5.0)
    svc0, svc1 = start_service_pair(tuning, seed=0x0FC)
    svc0.wait_ready()
    svc1.wait_ready()
    svc0.stop()
    svc1.stop()
    start = time.monotonic()
    with pytest.raises(PoolClosed):
        svc0.session("late").draw([("mtri", (2, 2, 2), 1)])
    assert time.monotonic() - start < 1.0


def test_pools_created_while_worker_exits_all_end_closed():
    """Sessions creating keyed pools race the worker's teardown: whether
    a pool lands before the teardown's snapshot or after it, it must end
    closed -- none may slip between the snapshot and the factory."""
    import sys

    svc0, svc1 = start_service_pair(seed=0x0FD)
    svc0.wait_ready()
    svc1.wait_ready()
    done = threading.Event()

    def create(lane):
        i = 0
        while not done.is_set():
            i += 1
            svc0.matrix_pool(lane + 1, i, 1)

    threads = [threading.Thread(target=create, args=(lane,)) for lane in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        svc0.stop()
        svc1.stop()
        before = len(svc0.pools)
        time.sleep(0.05)  # creation goes on past the teardown
        done.set()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(svc0.pools) > before
    assert all(pool._closed for pool in svc0.pools.values())


def test_follower_stop_fast_path_when_degraded():
    """A degraded follower's stop() must not wait out the full grace
    period for a leader STOP that can never arrive."""
    base_a, base_b = LocalChannel.pair(timeout=60.0)
    MuxChannel(base_a, timeout=60.0)  # leader end exists but never starts
    mux1 = MuxChannel(base_b, timeout=60.0)
    svc1 = CorrelationService(1, mux1, CFG, TUNING).start()
    time.sleep(0.2)  # the worker is now blocked in base-OT setup
    svc1.degraded_since = time.monotonic()  # simulate a noticed outage
    start = time.monotonic()
    svc1.stop(timeout=60.0)
    assert time.monotonic() - start < 10.0
    mux1.close()


def test_retry_stats_and_resume_state_shapes():
    svc0, svc1 = start_service_pair(seed=0x0FB)
    try:
        svc0.wait_ready()
        svc1.wait_ready()
        stats = svc0.retry_stats()
        for key in (
            "stalled_recvs", "retry_slices", "degraded_events",
            "worker_restarts", "resyncs", "rolled_back",
        ):
            assert key in stats and stats[key] >= 0
        # LocalChannel base: no reconnect layer, so no redial counters.
        assert "reconnects" not in stats

        state = svc0.resume_state()
        assert state["party"] == 0
        assert isinstance(state["tags"], dict)
        assert set(state["pools"]) == set(svc0.pools)
        assert all(v >= 0 for v in state["pools"].values())
        # The state is what a ReconnectingChannel ships: JSON-safe.
        import json

        json.dumps(state)
    finally:
        svc0.stop()
        svc1.stop()
