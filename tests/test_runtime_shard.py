"""Process-sharded correlation production.

Covers the PR-8 acceptance surface: a 2-shard service pair serves
verifiable COTs and triples, per-shard telemetry attributes the work,
``shards=1`` is byte-identical to the default single-worker stream, and
the pipelined MLP example keeps its draws==plan / zero-stall guarantees
when the raw-COT stream underneath it is produced by shard processes.
"""

import os
import threading
import time

import numpy as np
import pytest
from parties import in_background

from repro.errors import ServiceError
from repro.ferret.config import FerretConfig
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import ChannelError, LocalChannel, SocketChannel, run_concurrently
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot
from repro.ot.faults import DISCONNECT, FaultEvent, FaultSchedule, FaultyChannel
from repro.ot.reconnect import ReconnectingChannel
from repro.ot.retry import RetryPolicy
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning, run_online, shard
from repro.runtime.shard import ShardManager

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
SHARDS = 2


def start_service_pair(tuning, cfg=CFG, seed=0x5AD0):
    base_a, base_b = LocalChannel.pair(timeout=180.0)
    mux0 = MuxChannel(base_a, timeout=180.0)
    mux1 = MuxChannel(base_b, timeout=180.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=seed).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=seed).start()
    return svc0, svc1, mux0, mux1


def run_pair(fn0, fn1, timeout=240.0, ctx=()):
    """Both parties concurrently; a hang surfaces service errors."""
    results, errors = {}, []

    def runner(party, fn):
        try:
            results[party] = fn()
        except BaseException as exc:  # noqa: BLE001
            errors.append((party, exc))

    t0 = threading.Thread(target=runner, args=(0, fn0))
    t1 = threading.Thread(target=runner, args=(1, fn1))
    t0.start(), t1.start()
    t0.join(timeout), t1.join(timeout)
    assert not errors, f"parties failed: {errors} (svc errors: {ctx})"
    assert not t0.is_alive() and not t1.is_alive(), f"hung (svc errors: {ctx})"
    return results[0], results[1]


class TestShardedService:
    """One shared 2-shard pair: COTs, triples, telemetry, shutdown."""

    @pytest.fixture(scope="class")
    def services(self):
        tuning = ServiceTuning(
            shards=SHARDS,
            triple_low=64, triple_high=256, triple_chunk=128,
        )
        svc0, svc1, mux0, mux1 = start_service_pair(tuning)
        svc0.wait_ready(240.0)
        svc1.wait_ready(240.0)
        yield svc0, svc1
        svc0.stop(), svc1.stop()
        mux0.close(), mux1.close()

    def test_cots_verify_across_shard_merge(self, services):
        svc0, svc1 = services
        # More than one extend's worth, so draws cross shard boundaries.
        n = CFG.net_output + CFG.net_output // 2
        s, r = run_pair(
            lambda: svc0.session("cot").draw([("cot/fwd", (), n)])[0][0],
            lambda: svc1.session("cot").draw([("cot/fwd", (), n)])[0][0],
            ctx=(svc0.error, svc1.error),
        )
        assert isinstance(s, CotSenderBatch) and isinstance(r, CotReceiverBatch)
        assert verify_cot(s, r)

    def test_derived_triples_ride_merged_stream(self, services):
        svc0, svc1 = services
        t0, t1 = run_pair(
            lambda: svc0.session("tri").draw([("tri", (), 300)])[0][0],
            lambda: svc1.session("tri").draw([("tri", (), 300)])[0][0],
            ctx=(svc0.error, svc1.error),
        )
        a = t0.a ^ t1.a
        b = t0.b ^ t1.b
        c = t0.c ^ t1.c
        assert np.array_equal(c, a & b)

    def test_per_shard_telemetry_attributes_all_extends(self, services):
        svc0, svc1 = services
        tel0 = tel1 = None
        # Background refill may have extends in flight; the per-shard
        # counters and the service total converge once they land.
        for _ in range(100):
            tel0, tel1 = svc0.telemetry(), svc1.telemetry()
            if all(
                sum(t[f"shard/{i}/extends"] for i in range(SHARDS))
                == t.get("ferret/fwd/extends", 0) + t.get("ferret/rev/extends", 0)
                for t in (tel0, tel1)
            ):
                break
            time.sleep(0.1)
        assert tel0["shard/shards"] == SHARDS
        for party, tel in ((0, tel0), (1, tel1)):
            per_shard = [tel[f"shard/{i}/extends"] for i in range(SHARDS)]
            total = tel.get("ferret/fwd/extends", 0) + tel.get(
                "ferret/rev/extends", 0
            )
            assert sum(per_shard) == total, (party, per_shard, total)
            # Both shards did real work under the concurrent draws.
            assert all(e >= 1 for e in per_shard), (party, per_shard)
            for i in range(SHARDS):
                assert tel[f"shard/{i}/setup_s"] > 0
        # Leader exposes in-flight accounting; follower its merge queue.
        assert "shard/inflight/fwd" in tel0
        assert "shard/pending_merge" in tel1

    def test_stop_is_idempotent_and_clean(self, services):
        # The fixture will stop again at teardown; a second stop on a
        # drained manager must not raise or hang.
        svc0, svc1 = services
        assert svc0.error is None and svc1.error is None


class TestShardsOneIsByteIdentical:
    """``shards=1`` must construct none of the machinery and emit the
    exact stream the default tuning does."""

    def _draw(self, tuning, n, seed):
        svc0, svc1, mux0, mux1 = start_service_pair(tuning, seed=seed)
        try:
            s, r = run_pair(
                lambda: svc0.session("id").draw([("cot/fwd", (), n)])[0][0],
                lambda: svc1.session("id").draw([("cot/fwd", (), n)])[0][0],
                ctx=(svc0.error, svc1.error),
            )
        finally:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()
        return s, r

    def test_stream_matches_default_tuning(self):
        n = CFG.net_output // 2
        base = ServiceTuning()
        one = ServiceTuning(shards=1)
        s_a, r_a = self._draw(base, n, seed=0xBEE)
        s_b, r_b = self._draw(one, n, seed=0xBEE)
        assert np.array_equal(s_a.z, s_b.z)
        assert np.array_equal(r_a.x, r_b.x)
        assert np.array_equal(r_a.y, r_b.y)

    def test_shards_one_builds_no_manager(self):
        base_a, base_b = LocalChannel.pair(timeout=60.0)
        mux0 = MuxChannel(base_a, timeout=60.0)
        svc = CorrelationService(0, mux0, CFG, ServiceTuning(shards=1), seed=1)
        try:
            assert svc._shard_mgr is None
        finally:
            mux0.close()

    def test_zero_shards_rejected(self):
        base_a, base_b = LocalChannel.pair(timeout=60.0)
        mux0 = MuxChannel(base_a, timeout=60.0)
        try:
            with pytest.raises(ServiceError, match="shards"):
                CorrelationService(0, mux0, CFG, ServiceTuning(shards=0), seed=1)
        finally:
            mux0.close()

    def test_manager_requires_two_shards(self):
        with pytest.raises(ServiceError, match="shards"):
            ShardManager(object(), 1, seed=0)


def _die_at_boot(*args):
    """A shard worker entry point that dies without a word to its
    parent (module level: spawn pickles it by reference)."""
    os._exit(3)


class TestWorkerDeath:
    def test_worker_exit_at_boot_fails_both_services_fast(self, monkeypatch):
        """Nobody posts ``("error", ...)`` for a worker that never ran:
        the managers have to notice the exit code themselves, not sit
        out the 30 s rendezvous budget."""
        monkeypatch.setattr(shard, "_worker_main", _die_at_boot)
        tuning = ServiceTuning(shards=SHARDS)
        svc0, svc1, mux0, mux1 = start_service_pair(tuning)
        try:
            # The clock starts once the workers are dead: booting four
            # interpreters is most of a second on two cores, and it is
            # the noticing that is bounded here, not the spawning.
            deadline = time.monotonic() + 60.0
            while not all(
                len(svc._shard_mgr._procs) == SHARDS
                and all(p.exitcode is not None for p in svc._shard_mgr._procs)
                for svc in (svc0, svc1)
            ):
                assert time.monotonic() < deadline, "workers never died"
                time.sleep(0.02)
            t0 = time.monotonic()
            for svc in (svc0, svc1):
                with pytest.raises(ServiceError, match=r"shard \d exited with code 3"):
                    svc.wait_ready(60.0)
            assert time.monotonic() - t0 < 2.0
        finally:
            for svc in (svc0, svc1):
                with pytest.raises(ServiceError, match="exited with code 3"):
                    svc.stop()
            mux0.close(), mux1.close()


    def test_worker_killed_mid_run_fails_blocked_draws(self):
        """A killed worker posts nothing either; the leader's merge loop
        notices on its idle tick and closes the pools, so a draw waiting
        on production fails at once instead of after its take timeout."""
        tuning = ServiceTuning(shards=SHARDS)
        svc0, svc1, mux0, mux1 = start_service_pair(tuning)
        try:
            svc0.wait_ready(240.0), svc1.wait_ready(240.0)
            svc0._shard_mgr._procs[1].kill()
            t0 = time.monotonic()
            with pytest.raises(ServiceError, match="closed while waiting"):
                svc0.session("orphan").draw([("cot/fwd", (), 100 * CFG.net_output)])
            assert time.monotonic() - t0 < 5.0
            with pytest.raises(ServiceError, match="shard 1 exited with code -9"):
                svc0._shard_mgr.check_failed()
        finally:
            for svc in (svc0, svc1):
                try:
                    svc.stop()
                except ServiceError:
                    pass  # the dead shard, reported once more
            mux0.close(), mux1.close()


class TestReconnectUnderShards:
    """A 2-shard pair over a reconnecting main link must heal a real
    disconnect and keep serving verifiable correlations."""

    def test_reconnect_heals_and_serves(self):
        tuning = ServiceTuning(
            shards=SHARDS,
            triple_low=64, triple_high=256, triple_chunk=128,
        )
        listener = SocketChannel.listen()
        port = listener.port
        # bench_faults' dial shape, inlined: every fresh transport is
        # wrapped in a FaultyChannel sharing the side's live schedule,
        # so a schedule armed mid-run applies to the current epoch too.
        schedules = {"server": FaultSchedule(()), "client": FaultSchedule(())}
        channels = {"server": [], "client": []}

        def dialer(name, make):
            def dial():
                chan = FaultyChannel(make(), schedules[name])
                chan.schedule = schedules[name]
                channels[name].append(chan)
                return chan

            return dial

        dial_server = dialer(
            "server",
            lambda: listener.accept(accept_timeout=60.0, keep_open=True),
        )
        dial_client = dialer(
            "client",
            lambda: SocketChannel.connect("127.0.0.1", port, timeout=10.0),
        )
        policy = RetryPolicy(
            attempts=10, backoff_s=0.02, backoff_factor=2.0,
            max_backoff_s=0.25, deadline_s=60.0,
        )
        built, errs = {}, {}

        def build(name, dial):
            try:
                built[name] = ReconnectingChannel(dial, policy=policy)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errs[name] = exc

        threads = [
            threading.Thread(target=build, args=("server", dial_server)),
            threading.Thread(target=build, args=("client", dial_client)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errs, f"initial dial failed: {errs}"
        rc0, rc1 = built["server"], built["client"]

        mux0 = MuxChannel(rc0, timeout=240.0)
        mux1 = MuxChannel(rc1, timeout=240.0)
        svc0 = CorrelationService(0, mux0, CFG, tuning, seed=0x5EA1).start()
        svc1 = CorrelationService(1, mux1, CFG, tuning, seed=0x5EA1).start()
        rc0.state_provider = svc0.resume_state
        rc1.state_provider = svc1.resume_state
        try:
            svc0.wait_ready(240.0)
            svc1.wait_ready(240.0)
            # Quiesce: sharded production must be idle when the wire
            # drops (the documented sharded-resync limit -- raw-COT
            # frontiers have no per-endpoint snapshot to restore).
            # Wait for the frontiers to stop moving rather than trusting
            # a fixed sleep; under a loaded machine refill can outlive
            # any constant.
            deadline = time.monotonic() + 60.0
            prev = None
            while True:
                snap = tuple(
                    (name, pool.produced)
                    for svc in (svc0, svc1)
                    for name, pool in svc.pools.items()
                )
                if snap == prev:
                    break
                assert time.monotonic() < deadline, "production never quiesced"
                prev = snap
                time.sleep(0.25)

            # Index 0 = the very next server send: with production
            # quiesced that is the draw's own offset announcement, so
            # the disconnect fires deterministically (index 1 would
            # need a second send that idle production never makes).
            chaos = FaultSchedule((FaultEvent("send", 0, DISCONNECT),))
            schedules["server"] = chaos
            for chan in channels["server"]:
                chan.schedule = chaos

            # Small draws: enough traffic to trip the fault, not enough
            # to dip any pool below its low watermark (no extends are
            # scheduled across the outage).
            t0, t1 = run_pair(
                lambda: svc0.session("heal").draw([("tri", (), 32)])[0][0],
                lambda: svc1.session("heal").draw([("tri", (), 32)])[0][0],
                ctx=(svc0.error, svc1.error),
            )
            assert np.array_equal(t0.c ^ t1.c, (t0.a ^ t1.a) & (t0.b ^ t1.b))

            deadline = time.monotonic() + 60.0
            while rc0.reconnects + rc1.reconnects < 1:
                assert time.monotonic() < deadline, "fault never fired"
                time.sleep(0.05)
            assert chaos.injected, "scheduled disconnect was not injected"

            # Healed link still serves verifiable COTs off the merged
            # shard stream, and the follower's merger holds nothing back.
            s, r = run_pair(
                lambda: svc0.session("heal").draw([("cot/fwd", (), 64)])[0][0],
                lambda: svc1.session("heal").draw([("cot/fwd", (), 64)])[0][0],
                ctx=(svc0.error, svc1.error),
            )
            assert verify_cot(s, r)
            assert svc0.error is None and svc1.error is None
            deadline = time.monotonic() + 30.0
            while svc1.telemetry()["shard/pending_merge"]:
                assert time.monotonic() < deadline, "follower merge never drained"
                time.sleep(0.05)
        finally:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()
            listener.close()


BITS = 16
FX = FixedPointConfig(bits=BITS, frac_bits=4, mag_bits=9)
MASK = ring_mask_u64(BITS)
M, K, H, OUT = 4, 8, 6, 48


class TestShardedPipelinedMlp:
    """The PR-5 pipelined MLP example over a 2-shard service: output
    bit-exact, draws == plan, zero planned-pool stalls."""

    @pytest.fixture(scope="class")
    def planned_run(self):
        tuning = ServiceTuning(
            shards=SHARDS,
            ring_bits=BITS,
            triple_chunk=512,
        )
        svc0, svc1, mux0, mux1 = start_service_pair(tuning, seed=0x1CE)
        svc0.wait_ready(240.0)
        svc1.wait_ready(240.0)

        g = Graph("ShardPipe", (M, K))
        g.add(Linear(H))
        g.add(Rescale())
        g.add(Activation("relu"))
        g.add(Linear(OUT))
        plan = plan_graph(g, bits=BITS, fx=FX)

        gen = np.random.default_rng(41)
        x = gen.integers(-8, 8, (M, K))
        w1 = gen.integers(-3, 3, (K, H))
        w2 = gen.integers(-3, 3, (H, OUT))
        shares = {
            key: share_arith_nd(from_signed(mat, BITS), gen, bits=BITS)
            for key, mat in (("x", x), ("w1", w1), ("w2", w2))
        }
        h_ref = np.maximum((x @ w1) >> FX.frac_bits, 0)
        expect = ((h_ref @ w2).astype(np.int64) & int(MASK)).astype(np.uint64)

        stall_before = {
            kind: s["stalled_draws"] for kind, s in svc0.pool_stats().items()
        }
        draws_before = dict(svc0.session_draws)

        pipe0 = plan.prefill_pipelined(svc0, timeout=240.0)
        pipe1 = plan.prefill_pipelined(svc1, timeout=240.0)
        joins = [in_background(pipe0), in_background(pipe1)]

        def infer(svc, pipe, party):
            return lambda: run_online(
                plan, svc.session("shard-pipe-mlp"),
                [shares["w1"][party], shares["w2"][party]],
                [shares["x"][party]],
                np.random.default_rng(70 + party), pipe.wait_layer,
            )[0]

        try:
            z0, z1 = run_concurrently(
                infer(svc0, pipe0, 0), infer(svc1, pipe1, 1), 300.0
            )
        except ChannelError as exc:
            pytest.fail(f"{exc!r} (svc errors: {svc0.error}, {svc1.error})")
        for join in joins:
            join()
        yield {
            "plan": plan,
            "svc0": svc0,
            "got": (z0 + z1) & MASK,
            "expect": expect,
            "stall_before": stall_before,
            "draws_before": draws_before,
        }
        svc0.stop(), svc1.stop()
        mux0.close(), mux1.close()

    def test_output_bit_exact(self, planned_run):
        assert np.array_equal(planned_run["got"], planned_run["expect"])

    def test_session_draws_match_plan_exactly(self, planned_run):
        svc0 = planned_run["svc0"]
        before = planned_run["draws_before"]
        for kind, count in planned_run["plan"].pool_targets().items():
            drawn = svc0.session_draws.get(kind, 0) - before.get(kind, 0)
            assert drawn == count, (kind, drawn, count)

    def test_no_planned_pool_stalled(self, planned_run):
        svc0 = planned_run["svc0"]
        after = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}
        for kind in planned_run["plan"].pool_targets():
            assert after[kind] == planned_run["stall_before"].get(kind, 0), kind
