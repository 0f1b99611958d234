"""Integration tests for the correlation provisioning service.

The tentpole acceptance: >= 4 concurrent consumer sessions (triples +
ReLU mixes) draw from ONE shared CorrelationService pair over a
MuxChannel and produce correct correlations.
"""

import threading
import time

import numpy as np
import pytest

from parties import draws_plan

from repro.errors import ServiceError
from repro.ferret.config import FerretConfig
from repro.mpc.maxpool import max_via_service
from repro.mpc.relu import relu_via_service
from repro.mpc.sharing import from_signed, reconstruct_arith, share_arith, to_signed
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import LocalChannel
from repro.ot.cot import verify_cot
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
TUNING = ServiceTuning(
    triple_low=256, triple_high=1024, triple_chunk=512
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
    """One shared service pair driving 6 concurrent mixed sessions."""
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

    jobs = [
        ("relu-a", relu_job(sh_a)),
        ("relu-b", relu_job(sh_b)),
        ("maxpool", maxpool_job(sh_x, sh_y)),
        ("triples-1", triples_job(300)),
        ("triples-2", triples_job(150)),
        ("raw-cot", raw_cot_job(200)),
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


def test_one_setup_serves_every_session_and_extend(monkeypatch):
    """Fig. 1(b)'s amortization, stated exactly: however many sessions
    and extends a service pair runs, each party mints base COTs once
    per Ferret endpoint -- four base-COT runs in all."""
    import repro.ferret.protocol as protocol

    calls = []
    for name in ("base_cot_send", "base_cot_receive"):
        def counted(channel, *args, _real=getattr(protocol, name), _name=name):
            calls.append((_name, id(channel.base)))
            return _real(channel, *args)

        monkeypatch.setattr(protocol, name, counted)
    svc0, svc1, mux0, mux1 = start_service_pair(seed=0xA3)
    # Party 0 sends on the forward link and receives on the reverse one;
    # party 1 mirrors it.
    endpoints = [
        ("base_cot_send", id(mux0.sub("prov/fwd"))),
        ("base_cot_receive", id(mux0.sub("prov/rev"))),
        ("base_cot_receive", id(mux1.sub("prov/fwd"))),
        ("base_cot_send", id(mux1.sub("prov/rev"))),
    ]
    per_session = CFG.net_output // 3
    try:
        results = run_sessions(svc0, svc1, [
            (f"cot-{i}", lambda session, party: session.draw([("cot/fwd", (), per_session)])[0][0])
            for i in range(6)
        ])
        assert svc0.extends["fwd"] >= 2
        # Each worker counts an extend when its own half returns, so
        # the follower can be one behind for a moment.  Production
        # quiesces once the draws are served, and then the counts agree.
        deadline = time.monotonic() + 30.0
        while svc1.extends != svc0.extends and time.monotonic() < deadline:
            time.sleep(0.01)
        assert svc1.extends == svc0.extends
        assert verify_cot(results[(0, "cot-5")], results[(1, "cot-5")])
    finally:
        svc0.stop(), svc1.stop()
        mux0.close(), mux1.close()
    assert sorted(calls) == sorted(endpoints)


class TestServiceLifecycle:
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


MTRI_KEY = (2, 3, 2)


class TestPoolsOnFirstUse:
    """A pool exists because something draws it: a draw, a plan or a
    produce target makes it -- the raw-COT pools included -- and the
    same ones on both parties."""

    def test_fresh_service_holds_no_pool(self):
        base_a, _ = LocalChannel.pair()
        mux0 = MuxChannel(base_a)
        assert CorrelationService(0, mux0, CFG).pools == {}
        mux0.close()

    def test_forward_only_traffic_extends_no_reverse_pool(self):
        """Sessions drawing only ``cot/fwd`` and ``mtri`` run no reverse
        extend, and neither party holds a ``cot/rev`` pool; the first
        ``tri`` draw after them makes it and yields AND triples."""
        tuning = ServiceTuning(ring_bits=16)
        svc0, svc1, mux0, mux1 = start_service_pair(tuning, seed=0xF1)
        forward = [("cot/fwd", (), 300), ("mtri", MTRI_KEY, 1)]
        try:
            out = run_sessions(svc0, svc1, [
                (f"fwd{i}", lambda session, party: session.draw(forward)[0])
                for i in range(2)
            ])
            for svc in (svc0, svc1):
                assert svc.extends["rev"] == 0 and svc.extends["fwd"] >= 1
                assert svc.telemetry()["ferret/rev/extends"] == 0
                assert set(svc.pools) == {"cot/fwd", "mtri/2x3x2"}
            mask = (1 << 16) - 1
            for i in range(2):
                (cots0, mtri0), (cots1, mtri1) = out[0, f"fwd{i}"], out[1, f"fwd{i}"]
                assert verify_cot(cots0, cots1)
                a, b = (mtri0.a + mtri1.a) & mask, (mtri0.b + mtri1.b) & mask
                assert np.array_equal((mtri0.c + mtri1.c) & mask, (a @ b) & mask)

            out = run_sessions(svc0, svc1, [
                ("tri", lambda session, party: session.draw([("tri", (), 200)])[0][0]),
            ])
            tri0, tri1 = out[0, "tri"], out[1, "tri"]
            assert np.array_equal(tri0.c ^ tri1.c, (tri0.a ^ tri1.a) & (tri0.b ^ tri1.b))
            for svc in (svc0, svc1):
                assert "cot/rev" in svc.pools and svc.extends["rev"] >= 1
        finally:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()

    def test_idle_service_extends_nothing(self):
        """Making a pool asks for no production: only a draw or a
        produce target does, and a draw gets no more than it needs."""
        svc0, svc1, mux0, mux1 = start_service_pair(seed=0xF3)
        try:
            for svc in (svc0, svc1):
                svc.wait_ready()
                svc.pool("cot/fwd")
                svc.pool("tri")
            time.sleep(1.0)
            for svc in (svc0, svc1):
                assert svc.extends == {"fwd": 0, "rev": 0}, svc.party
            n = 100
            run_sessions(svc0, svc1, [
                ("cots", lambda session, party: session.draw([("cot/fwd", (), n)])),
            ])
            for svc in (svc0, svc1):
                assert svc.pools["cot/fwd"].produced - n < CFG.net_output, svc.party
                assert svc.extends["rev"] == 0, svc.party
        finally:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()

    def test_prefill_names_an_unkeyed_pool_into_being(self):
        svc0, svc1, mux0, mux1 = start_service_pair(seed=0xF1)
        try:
            run_sessions(svc0, svc1, [
                ("fill", lambda session, party: draws_plan(
                    [("tri", (), 64)], session.service.tuning.ring_bits
                ).prefill(session.service)),
            ])
            for svc in (svc0, svc1):
                assert svc.pools["tri"].produced >= 64
        finally:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()

    def test_plan_and_draw_make_the_same_pools_on_both_parties(self):
        fx = FixedPointConfig(bits=16, frac_bits=4, mag_bits=9)
        tuning = ServiceTuning(ring_bits=16)
        svc0, svc1, mux0, mux1 = start_service_pair(tuning, seed=0xF2)
        graph = Graph("FirstUse", (2, 6))
        for layer in (Linear(4), Rescale(), Activation("relu")):
            graph.add(layer)
        plan = plan_graph(graph, bits=16, fx=fx)
        draws = [(kind, key, count) for (kind, key), count in plan.demand.draws.items()]

        def job(session, party):
            plan.prefill(session.service)
            return session.draw(draws)

        try:
            run_sessions(svc0, svc1, [("plan", job)])
            assert {"mtri/2x6x4", "tri"} <= set(svc0.pools)
            assert svc0.pools.keys() == svc1.pools.keys()
            assert svc0.resume_state()["pools"].keys() == svc1.resume_state()["pools"].keys()
        finally:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()
