"""Integration tests for the correlation provisioning service.

The tentpole acceptance: >= 4 concurrent consumer sessions (triples +
ReLU mixes) draw from ONE shared CorrelationService pair over a
MuxChannel and produce correct correlations.
"""

import threading

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.ferret.config import FerretConfig
from repro.mpc.maxpool import max_via_service
from repro.mpc.relu import relu_via_service
from repro.mpc.sharing import from_signed, reconstruct_arith, share_arith, to_signed
from repro.ot.channel import LocalChannel
from repro.ot.cot import verify_cot
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
TUNING = ServiceTuning(
    triple_low=256, triple_high=1024, triple_chunk=512, rot_low=32, rot_high=128
)
BITS = 10


def start_service_pair(tuning=TUNING, cfg=CFG, seed=0x51C):
    base_a, base_b = LocalChannel.pair(timeout=120.0)
    mux0, mux1 = MuxChannel(base_a, timeout=120.0), MuxChannel(base_b, timeout=120.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=seed).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=seed).start()
    return svc0, svc1, mux0, mux1


def run_sessions(svc0, svc1, jobs, timeout=180.0):
    """jobs: list of (name, fn(session, party)); returns {(party, name): out}."""
    results, errors = {}, []

    def party_runner(party, svc):
        threads = []
        for name, fn in jobs:
            session = svc.session(name)

            def one(fn=fn, session=session, name=name, party=party):
                try:
                    results[(party, name)] = fn(session, party)
                except BaseException as exc:  # noqa: BLE001
                    errors.append((party, name, exc))

            threads.append(threading.Thread(target=one))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)

    p0 = threading.Thread(target=party_runner, args=(0, svc0))
    p1 = threading.Thread(target=party_runner, args=(1, svc1))
    p0.start(), p1.start()
    p0.join(timeout), p1.join(timeout)
    assert not errors, f"sessions failed: {errors} (svc errors: {svc0.error}, {svc1.error})"
    assert not p0.is_alive() and not p1.is_alive(), (
        f"sessions hung (svc errors: {svc0.error}, {svc1.error})"
    )
    return results


@pytest.fixture(scope="module")
def service_run():
    """One shared service pair driving 7 concurrent mixed sessions."""
    svc0, svc1, mux0, mux1 = start_service_pair()
    rng = np.random.default_rng(0xAB)
    vals_a = rng.integers(-400, 400, 12)
    vals_b = rng.integers(-400, 400, 12)
    sh_a = share_arith(from_signed(vals_a, BITS).astype(np.uint64), rng, bits=BITS)
    sh_b = share_arith(from_signed(vals_b, BITS).astype(np.uint64), rng, bits=BITS)
    # MaxPool window operands: |x - y| must stay inside the signed ring.
    win_x = rng.integers(-200, 200, 12)
    win_y = rng.integers(-200, 200, 12)
    sh_x = share_arith(from_signed(win_x, BITS).astype(np.uint64), rng, bits=BITS)
    sh_y = share_arith(from_signed(win_y, BITS).astype(np.uint64), rng, bits=BITS)

    def relu_job(shares_pair):
        def fn(session, party):
            local_rng = np.random.default_rng(100 + party)
            y, d = relu_via_service(session, shares_pair[party], local_rng)
            return y

        return fn

    def maxpool_job(a_pair, b_pair):
        def fn(session, party):
            local_rng = np.random.default_rng(200 + party)
            return max_via_service(session, a_pair[party], b_pair[party], local_rng)

        return fn

    def triples_job(n):
        def fn(session, party):
            return session.draw([("tri", (), n)])[0][0]

        return fn

    def raw_cot_job(n):
        def fn(session, party):
            return session.draw([("cot/fwd", (), n)])[0][0]

        return fn

    def chosen_ot_job(n):
        gen = np.random.default_rng(55)
        m0v = np.zeros((n, 2), dtype=np.uint64)
        m1v = np.ones((n, 2), dtype=np.uint64)
        choices = gen.integers(0, 2, n).astype(np.uint8)

        def fn(session, party):
            if party == 0:
                session.ot_send(m0v, m1v)
                return choices  # expectation for the asserting side
            return session.ot_receive(choices)

        return fn

    jobs = [
        ("relu-a", relu_job(sh_a)),
        ("relu-b", relu_job(sh_b)),
        ("maxpool", maxpool_job(sh_x, sh_y)),
        ("triples-1", triples_job(300)),
        ("triples-2", triples_job(150)),
        ("raw-cot", raw_cot_job(200)),
        ("chosen-ot", chosen_ot_job(40)),
    ]
    results = run_sessions(svc0, svc1, jobs)
    svc0.stop()
    svc1.stop()
    yield {
        "results": results,
        "svc0": svc0,
        "svc1": svc1,
        "mux0": mux0,
        "mux1": mux1,
        "vals_a": vals_a,
        "vals_b": vals_b,
        "window": (win_x, win_y),
    }
    mux0.close(), mux1.close()


class TestConcurrentSessions:
    def test_at_least_four_sessions_ran(self, service_run):
        names = {name for (_, name) in service_run["results"]}
        assert len(names) >= 4

    def test_relu_sessions_correct(self, service_run):
        r = service_run["results"]
        for name, vals in (("relu-a", service_run["vals_a"]),
                           ("relu-b", service_run["vals_b"])):
            got = to_signed(reconstruct_arith(r[(0, name)], r[(1, name)]), BITS)
            assert np.array_equal(got, np.maximum(vals, 0)), name

    def test_maxpool_session_correct(self, service_run):
        r = service_run["results"]
        got = to_signed(reconstruct_arith(r[(0, "maxpool")], r[(1, "maxpool")]), BITS)
        assert np.array_equal(got, np.maximum(*service_run["window"]))

    def test_triple_sessions_satisfy_and_relation(self, service_run):
        r = service_run["results"]
        for name in ("triples-1", "triples-2"):
            t0, t1 = r[(0, name)], r[(1, name)]
            a, b, c = t0.a ^ t1.a, t0.b ^ t1.b, t0.c ^ t1.c
            assert np.array_equal(c, a & b), name
            assert 0.2 < a.mean() < 0.8  # shares look random

    def test_raw_cot_draws_are_correlated(self, service_run):
        r = service_run["results"]
        assert verify_cot(r[(0, "raw-cot")], r[(1, "raw-cot")])

    def test_chosen_message_ot_transfers(self, service_run):
        r = service_run["results"]
        choices, got = r[(0, "chosen-ot")], r[(1, "chosen-ot")]
        expect = choices.astype(np.uint64)
        assert np.array_equal(got[:, 0], expect)
        assert np.array_equal(got[:, 1], expect)

    def test_sessions_share_one_link(self, service_run):
        mux0 = service_run["mux0"]
        tags = mux0.tags
        assert sum(1 for t in tags if t.startswith("sess/")) >= 4
        assert sum(1 for t in tags if t.startswith("prov/")) >= 3
        per_tag = sum(s.bytes_sent for s in mux0.stats_by_tag().values())
        assert per_tag == mux0.base.stats.bytes_sent

    def test_pool_stats_recorded(self, service_run):
        stats = service_run["svc0"].pool_stats()
        assert stats["cot/fwd"]["items_drawn"] > 0
        assert stats["cot/fwd"]["refills"] > 0
        assert stats["tri"]["items_drawn"] >= 450
        for pool_stats in stats.values():
            assert 0.0 <= pool_stats["hit_rate"] <= 1.0

    def test_service_ran_extends_in_both_directions(self, service_run):
        svc0 = service_run["svc0"]
        assert svc0.extends["fwd"] >= 1
        assert svc0.extends["rev"] >= 1
        # Follower mirrors the leader's command stream exactly.
        assert service_run["svc1"].extends == svc0.extends


class TestServiceLifecycle:
    def test_random_ot_pools(self):
        """ROT draws: sender pairs and receiver choices stay consistent."""
        svc0, svc1, mux0, mux1 = start_service_pair(seed=0xD1)

        def rot_job(session, party):
            return session.draw([("rot/fwd", (), 50)])[0][0]

        results = run_sessions(svc0, svc1, [("rot", rot_job)])
        m0, m1 = results[(0, "rot")]
        bits, chosen = results[(1, "rot")]
        expect = np.where(bits[:, None].astype(bool), m1, m0)
        assert np.array_equal(chosen, expect)
        svc0.stop(), svc1.stop()
        mux0.close(), mux1.close()

    def test_follower_stop_first_is_graceful(self):
        """Stopping party 1 before party 0 must not wedge the leader:
        the follower keeps replaying commands until STOP arrives."""
        import time

        svc0, svc1, mux0, mux1 = start_service_pair(seed=0xF0)
        svc0.wait_ready(120.0), svc1.wait_ready(120.0)
        done = []

        def stop_follower():
            svc1.stop(60.0)
            done.append(True)

        t = threading.Thread(target=stop_follower)
        t.start()
        time.sleep(0.3)  # follower.stop() is already waiting
        svc0.stop(60.0)
        t.join(90.0)
        assert done, "follower stop() never completed"
        assert svc0.error is None and svc1.error is None
        mux0.close(), mux1.close()

    def test_worker_failure_surfaces_to_consumers(self):
        """A dead service must fail draws loudly, not hang forever."""
        import dataclasses

        base_a, _ = LocalChannel.pair(timeout=1.0)
        mux0 = MuxChannel(base_a, timeout=1.0)
        tuning = dataclasses.replace(TUNING, take_timeout_s=0.2)
        svc0 = CorrelationService(0, mux0, CFG, tuning, seed=1)
        # Never started: draws must time out against the empty pool.
        session = svc0.session("orphan")
        with pytest.raises(ServiceError):
            session.draw([("tri", (), 4)])
        mux0.close()

    def test_party_validation(self):
        base_a, _ = LocalChannel.pair()
        mux0 = MuxChannel(base_a)
        with pytest.raises(ServiceError):
            CorrelationService(2, mux0, CFG)
        mux0.close()

    def test_triples_require_reverse_direction(self):
        base_a, _ = LocalChannel.pair()
        mux0 = MuxChannel(base_a)
        bad = ServiceTuning(enable_reverse=False, enable_triples=True)
        with pytest.raises(ServiceError):
            CorrelationService(0, mux0, CFG, bad)
        mux0.close()
