"""Persistent inference daemon: serving, admission, leases, re-attach.

Covers the PR-9 acceptance surface: sequential and batched requests
through one daemon pair are bit-exact against the fixed-point oracle
with per-request draws scaling by exactly batch x plan; the leader's
admission window rejects with a typed error on BOTH parties; unclaimed
results are reaped on lease expiry; and a mid-request transport
disconnect heals through the resume handshake with the client
re-attaching to its in-flight request by lease token.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionReject,
    DaemonError,
    LeaseExpired,
    ParameterError,
    ProtocolError,
)
from repro.ferret.config import FerretConfig
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import LocalChannel, SocketChannel, run_concurrently
from repro.ot.faults import DISCONNECT, FaultEvent, FaultSchedule, FaultyChannel
from repro.ot.reconnect import ReconnectingChannel
from repro.ot.retry import RetryPolicy
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.runtime import (
    CorrelationService,
    DaemonConfig,
    DaemonRequest,
    InferenceDaemon,
    Lease,
    MuxChannel,
    ServiceTuning,
)

RING_BITS = 16
MASK = ring_mask_u64(RING_BITS)
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
M, K, H, OUT = 2, 6, 4, 3
TUNING = dict(
    ring_bits=RING_BITS,
    triple_low=256, triple_high=1024, triple_chunk=256,
)


def build_graph():
    g = Graph("mlp", (M, K))
    g.add(Linear(H))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(OUT))
    return g


def make_model(rng):
    """Plaintext weights, their shares, and the fixed-point oracle."""
    w1 = rng.integers(-4, 4, (K, H))
    w2 = rng.integers(-4, 4, (H, OUT))
    w1s = share_arith_nd(from_signed(w1, RING_BITS), rng, bits=RING_BITS)
    w2s = share_arith_nd(from_signed(w2, RING_BITS), rng, bits=RING_BITS)

    def oracle(x):
        h = np.maximum((x @ w1) >> FX.frac_bits, 0)
        return ((h @ w2).astype(np.int64) & int(MASK)).astype(np.uint64)

    return w1s, w2s, oracle


def share_input(x, rng):
    return share_arith_nd(from_signed(x, RING_BITS), rng, bits=RING_BITS)


def start_daemon_pair(dcfg, seed=0xD0):
    base0, base1 = LocalChannel.pair(timeout=120.0)
    mux0, mux1 = MuxChannel(base0, timeout=120.0), MuxChannel(base1, timeout=120.0)
    tuning = ServiceTuning(**TUNING)
    svc0 = CorrelationService(0, mux0, CFG, tuning, seed=seed).start()
    svc1 = CorrelationService(1, mux1, CFG, tuning, seed=seed).start()
    rng = np.random.default_rng(seed)
    g = build_graph()
    w1s, w2s, oracle = make_model(rng)
    d0 = InferenceDaemon(svc0, g, [w1s[0], w2s[0]], fx=FX, cfg=dcfg).start()
    d1 = InferenceDaemon(svc1, g, [w1s[1], w2s[1]], fx=FX, cfg=dcfg).start()
    return {
        "d0": d0, "d1": d1, "svc0": svc0, "svc1": svc1,
        "mux0": mux0, "mux1": mux1, "oracle": oracle, "rng": rng,
    }


def stop_daemon_pair(stack):
    run_concurrently(
        lambda: stack["d0"].stop(60.0), lambda: stack["d1"].stop(60.0), 120.0
    )
    stack["svc0"].stop(), stack["svc1"].stop()
    stack["mux0"].close(), stack["mux1"].close()


class TestDaemonServing:
    """One shared daemon pair: sequential + batched bit-exactness,
    draw accounting, live-lease attach, telemetry."""

    @pytest.fixture(scope="class")
    def stack(self):
        dcfg = DaemonConfig(
            max_inflight=4, session_inflight=2,
            lease_ttl_s=30.0, request_timeout_s=120.0,
        )
        stack = start_daemon_pair(dcfg)
        yield stack
        stop_daemon_pair(stack)

    def _roundtrip(self, stack, xs, session="cli"):
        """Submit each x as one request on both parties; reconstructed
        outputs + the leader-side requests."""
        rng = stack["rng"]
        shares = [share_input(x, rng) for x in xs]
        reqs = {}

        def party(key, d, i):
            out = []
            rs = [d.submit(session, sh[i]) for sh in shares]
            reqs[key] = rs
            for r in rs:
                out.append(r.result(120.0))
            return out

        r0, r1 = run_concurrently(
            lambda: party(0, stack["d0"], 0),
            lambda: party(1, stack["d1"], 1),
            240.0,
        )
        outs = [(a[0] + b[0]) & MASK for a, b in zip(r0, r1)]
        return outs, reqs[0]

    def test_sequential_requests_bit_exact(self, stack):
        xs = [stack["rng"].integers(-8, 8, (M, K)) for _ in range(3)]
        outs, reqs = self._roundtrip(stack, xs)
        for x, got in zip(xs, outs):
            assert np.array_equal(got, stack["oracle"](x))
        # Every request recorded its first-layer wait (the overlap
        # figure of merit the daemon benchmark gates on).
        assert all(r.first_wait_s is not None for r in reqs)
        assert all(r.online_s is not None for r in reqs)

    def test_batched_draws_are_plan_times_batch(self, stack):
        batch = 3
        rng = stack["rng"]
        xs = [rng.integers(-8, 8, (M, K)) for _ in range(batch)]
        shares = [share_input(x, rng) for x in xs]
        before = stack["svc0"].session_draw_counts()

        r0, r1 = run_concurrently(
            lambda: stack["d0"].submit("batch", [s[0] for s in shares]).result(120.0),
            lambda: stack["d1"].submit("batch", [s[1] for s in shares]).result(120.0),
            240.0,
        )
        for j, x in enumerate(xs):
            got = (r0[j] + r1[j]) & MASK
            assert np.array_equal(got, stack["oracle"](x))

        after = stack["svc0"].session_draw_counts()
        targets = stack["d0"].plan.pool_targets()
        assert targets, "plan must demand correlations"
        for kind, count in targets.items():
            drawn = after.get(kind, 0) - before.get(kind, 0)
            assert drawn == count * batch, (kind, drawn, count, batch)

    def test_attach_returns_live_request(self, stack):
        rng = stack["rng"]
        x = rng.integers(-8, 8, (M, K))
        sh = share_input(x, rng)

        def party(d, i):
            req = d.submit("att", sh[i])
            again = d.attach("att", req.lease.token)
            assert again is req
            return req.result(120.0)

        r0, r1 = run_concurrently(
            lambda: party(stack["d0"], 0), lambda: party(stack["d1"], 1), 240.0
        )
        assert np.array_equal((r0[0] + r1[0]) & MASK, stack["oracle"](x))
        assert stack["d0"].attaches >= 1 and stack["d1"].attaches >= 1
        with pytest.raises(LeaseExpired):
            stack["d0"].attach("att", "lease-no-such-token")

    def test_claimed_requests_leave_the_table(self, stack):
        """A claimed request used to stay in the lease table for good,
        with its pipeline's thread and events: a serving daemon grew by
        one entry per request, all walked on every attach / resume."""
        xs = [stack["rng"].integers(-8, 8, (M, K)) for _ in range(40)]
        outs, _ = self._roundtrip(stack, xs, session="many")
        assert np.array_equal(outs[-1], stack["oracle"](xs[-1]))
        for d in (stack["d0"], stack["d1"]):
            assert len(d._requests) <= d.cfg.max_inflight

    def test_daemon_metrics_ride_the_service_registry(self, stack):
        tel = stack["svc0"].telemetry()
        assert tel["daemon/p0/admitted"] >= 5
        assert tel["daemon/p0/completed"] >= 5
        assert tel["daemon/p0/batch_items"] > tel["daemon/p0/completed"]
        assert tel["daemon/p0/failed"] == 0

    def test_resume_state_carries_lease_table(self, stack):
        rng = stack["rng"]
        x = rng.integers(-8, 8, (M, K))
        sh = share_input(x, rng)

        def party(d, i):
            req = d.submit("resume", sh[i])
            state = d.resume_state()
            assert state["leases"]["resume"]["token"] == req.lease.token
            assert state["leases"]["resume"]["seq"] == req.seq
            return req.result(120.0)

        run_concurrently(
            lambda: party(stack["d0"], 0), lambda: party(stack["d1"], 1), 240.0
        )


class TestStreamPositions:
    """The daemon chains requests by arithmetic -- request r+1's stream
    positions start at request r's ``start + batch x plan totals`` --
    which holds only if every request reserves exactly its plan: matrix
    triples draw one fixed COT direction and no derived pool refills on
    its own, even under a tuning that still sets ``triple_low`` /
    ``triple_high`` (``TUNING`` does; both are unread)."""

    def test_positions_stay_exact_across_chained_requests(self):
        dcfg = DaemonConfig(
            max_inflight=4, session_inflight=2,
            lease_ttl_s=30.0, request_timeout_s=120.0,
        )
        stack = start_daemon_pair(dcfg, seed=0x905)
        d0, d1, svc0, rng = stack["d0"], stack["d1"], stack["svc0"], stack["rng"]
        try:
            plan = d0.plan
            planned = plan.pool_targets()
            totals = plan.cumulative_production()[-1]
            draws_before = svc0.session_draw_counts()
            stats = svc0.pool_stats()
            stalls_before = {kind: stats[kind]["stalled_draws"] for kind in planned}
            reserved_before = {kind: svc0.pools[kind].reserved for kind in totals}

            # Five single requests, submitted back to back: with two in
            # flight per session, request r+1's production overlaps
            # request r's online phase.  Then one B = 3 request.
            xs = [rng.integers(-8, 8, (M, K)) for _ in range(8)]
            shares = [share_input(x, rng) for x in xs]

            def party(d, i):
                reqs = [d.submit("pos", sh[i]) for sh in shares[:5]]
                outs = [r.result(120.0)[0] for r in reqs]
                outs += d.submit("pos", [sh[i] for sh in shares[5:]]).result(120.0)
                return outs

            r0, r1 = run_concurrently(
                lambda: party(d0, 0), lambda: party(d1, 1), 240.0
            )
            for x, a, b in zip(xs, r0, r1):
                assert np.array_equal((a + b) & MASK, stack["oracle"](x))

            items = 8
            draws = svc0.session_draw_counts()
            for kind, count in planned.items():
                assert draws.get(kind, 0) - draws_before.get(kind, 0) == count * items, kind
            stats = svc0.pool_stats()
            for kind in planned:
                assert stats[kind]["stalled_draws"] == stalls_before[kind], kind
            running = {
                kind: reserved_before[kind] + count * items for kind, count in totals.items()
            }
            assert d0._start == running
            for kind, position in running.items():
                assert svc0.pools[kind].reserved == position, kind
        finally:
            stop_daemon_pair(stack)


class TestThreadCensus:
    """A daemon starts every thread it runs in ``start()``: a request's
    pipeline runs on the scheduler thread, so serving starts none."""

    def test_warm_requests_start_no_threads(self, monkeypatch):
        dcfg = DaemonConfig(
            max_inflight=4, session_inflight=2,
            lease_ttl_s=30.0, request_timeout_s=120.0,
        )
        stack = start_daemon_pair(dcfg, seed=0x7C)
        rng, k = stack["rng"], 4
        xs = [rng.integers(-8, 8, (M, K)) for _ in range(k + 1)]
        shares = [share_input(x, rng) for x in xs]
        warm, go = threading.Barrier(3), threading.Event()
        outs, errors = {}, []

        def party(d, i):
            try:
                d.submit("census", shares[0][i]).result(120.0)
                warm.wait(120.0)
                go.wait(120.0)
                outs[i] = [d.submit("census", sh[i]).result(120.0)[0] for sh in shares[1:]]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        # The two client threads start before the census does.
        clients = [
            threading.Thread(target=party, args=(stack[f"d{i}"], i), daemon=True)
            for i in (0, 1)
        ]
        try:
            for t in clients:
                t.start()
            warm.wait(120.0)
            started, real_start = [], threading.Thread.start

            def counting_start(thread):
                started.append(thread.name)
                return real_start(thread)

            monkeypatch.setattr(threading.Thread, "start", counting_start)
            go.set()
            for t in clients:
                t.join(240.0)
            monkeypatch.undo()
            assert not any(t.is_alive() for t in clients), "a client never finished"
            assert not errors, errors
            for x, a, b in zip(xs[1:], outs[0], outs[1]):
                assert np.array_equal((a + b) & MASK, stack["oracle"](x))
            per_party = {p: [n for n in started if n.endswith(f"p{p}")] for p in (0, 1)}
            assert started == [], per_party
        finally:
            monkeypatch.undo()
            go.set()
            stop_daemon_pair(stack)


class TestAdmissionControl:
    """The leader's window rejects with a typed error on both parties.

    The follower holds back its submissions, so the leader's admitted
    requests cannot finish their (paired) online phase -- the in-flight
    window fills deterministically."""

    def test_reject_when_window_full(self):
        dcfg = DaemonConfig(
            max_inflight=2, session_inflight=2,
            lease_ttl_s=30.0, request_timeout_s=120.0,
        )
        stack = start_daemon_pair(dcfg, seed=0xADC)
        d0, d1, rng = stack["d0"], stack["d1"], stack["rng"]
        try:
            xs = [rng.integers(-8, 8, (M, K)) for _ in range(3)]
            shares = [share_input(x, rng) for x in xs]
            leader_full = threading.Event()
            rejects = {}

            def leader():
                reqs = [d0.submit(f"s{j}", shares[j][0]) for j in range(2)]
                try:
                    d0.submit("s2", shares[2][0])
                except AdmissionReject as exc:
                    rejects[0] = exc
                leader_full.set()
                return [r.result(120.0) for r in reqs]

            def follower():
                assert leader_full.wait(120.0)
                reqs = [d1.submit(f"s{j}", shares[j][1]) for j in range(2)]
                try:
                    d1.submit("s2", shares[2][1])
                except AdmissionReject as exc:
                    rejects[1] = exc
                return [r.result(120.0) for r in reqs]

            r0, r1 = run_concurrently(leader, follower, 240.0)
            for j in range(2):
                got = (r0[j][0] + r1[j][0]) & MASK
                assert np.array_equal(got, stack["oracle"](xs[j]))
            for party in (0, 1):
                assert party in rejects, f"party {party} was not rejected"
                assert rejects[party].inflight == 2
                assert rejects[party].limit == 2
            assert d0.rejected == 1 and d1.rejected == 1
        finally:
            stop_daemon_pair(stack)

    def test_failed_follower_submit_raises_the_cause_not_a_reject(self):
        """A follower submission still waiting for its verdict when the
        daemon gives up (dead ctl stream, no local submission, batch
        mismatch) fails with that cause -- not with the retry-me
        ``AdmissionReject`` of a full window."""
        dcfg = DaemonConfig(lease_ttl_s=30.0, request_timeout_s=120.0)
        stack = start_daemon_pair(dcfg, seed=0xFA1)
        d1, rng = stack["d1"], stack["rng"]
        try:
            share = share_input(rng.integers(-8, 8, (M, K)), rng)[1]
            raised = []

            def follower():
                try:
                    d1.submit("lonely", share)  # the leader never submits
                except DaemonError as exc:
                    raised.append(exc)

            thread = threading.Thread(target=follower)
            thread.start()
            deadline = time.monotonic() + 30.0
            while not d1._pending.get("lonely"):
                assert time.monotonic() < deadline, "submission never queued"
                time.sleep(0.01)
            cause = DaemonError("x")
            d1._fail_all(cause)
            thread.join(30.0)
            assert not thread.is_alive()
            (exc,) = raised
            assert not isinstance(exc, AdmissionReject)
            assert exc.__cause__ is cause and "x" in str(exc)
        finally:
            stop_daemon_pair(stack)


class TestMalformedControlFrame:
    """A ``daemon/ctl`` frame the follower cannot parse -- not JSON, an
    unknown op, a missing or extra field, a value outside its spec --
    used to kill the follower's control thread silently, leaving every
    pending ``submit`` to wait out ``request_timeout_s``.  It now fails
    them at once, typed."""

    @pytest.mark.parametrize(
        "frame",
        [b"{not json", b'["admit"]', b'{"op": "bogus", "session": "cli"}',
         b'{"op": "admit", "session": "cli"}', b'{"op": "\xff"}',
         b'{"op": "stop", "session": "cli"}',
         b'{"op": "admit", "seq": "0", "session": "cli", "batch": 1, "token": "t"}',
         b'{"op": "admit", "seq": -1, "session": "cli", "batch": 1, "token": "t"}',
         b'{"op": "admit", "seq": 0, "session": "cli", "batch": true, "token": "t"}',
         b'{"op": "reject", "session": "cli", "inflight": 9223372036854775808, "limit": 4}'],
        ids=["not-json", "not-an-object", "unknown-op", "missing-field", "not-utf8",
             "extra-field", "wrong-type", "negative-int", "bool-as-int", "int-2^63"],
    )
    def test_pending_follower_submit_fails_fast(self, frame):
        dcfg = DaemonConfig(lease_ttl_s=30.0, request_timeout_s=120.0)
        stack = start_daemon_pair(dcfg, seed=0xBAD)
        d0, d1, rng = stack["d0"], stack["d1"], stack["rng"]
        try:
            share = share_input(rng.integers(-8, 8, (M, K)), rng)[1]
            raised = []

            def follower():
                try:
                    d1.submit("cli", share)
                except DaemonError as exc:
                    raised.append(exc)

            thread = threading.Thread(target=follower)
            thread.start()
            deadline = time.monotonic() + 30.0
            while not d1._pending.get("cli"):
                assert time.monotonic() < deadline, "submission never queued"
                time.sleep(0.01)
            start = time.monotonic()
            d0._ctl.send_bytes(frame)
            thread.join(5.0)
            assert not thread.is_alive(), "follower submit still waiting"
            assert time.monotonic() - start < 1.5
            (exc,) = raised
            assert isinstance(exc.__cause__, ProtocolError)
            # The control stream is gone: later submissions fail at once.
            with pytest.raises(DaemonError, match="control stream failed"):
                d1.submit("cli", share)
        finally:
            stop_daemon_pair(stack)


class TestLeases:
    """Unclaimed results are reaped at lease expiry; claimed ones are
    not; ``result`` renews the lease while it waits."""

    def test_unclaimed_result_is_reaped(self):
        dcfg = DaemonConfig(
            max_inflight=4, session_inflight=2,
            lease_ttl_s=0.3, request_timeout_s=120.0,
        )
        stack = start_daemon_pair(dcfg, seed=0x1EA)
        d0, d1, rng = stack["d0"], stack["d1"], stack["rng"]
        try:
            x = rng.integers(-8, 8, (M, K))
            sh = share_input(x, rng)

            def party(d, i):
                req = d.submit("cli", sh[i])
                # Do NOT claim: wait for completion, then outlive the
                # lease without touching result() (which would renew).
                assert req.done.wait(120.0)
                deadline = time.monotonic() + 30.0
                while not req.expired:
                    assert time.monotonic() < deadline, "reaper never fired"
                    time.sleep(0.05)
                with pytest.raises(LeaseExpired):
                    req.result(5.0)
                with pytest.raises(LeaseExpired):
                    d.attach("cli", req.lease.token)
                return req

            q0, q1 = run_concurrently(
                lambda: party(d0, 0), lambda: party(d1, 1), 240.0
            )
            assert q0.output is None and q1.output is None
            assert d0.expired_leases >= 1 and d1.expired_leases >= 1

            # A promptly claimed request survives the same short TTL.
            x2 = rng.integers(-8, 8, (M, K))
            sh2 = share_input(x2, rng)
            r0, r1 = run_concurrently(
                lambda: d0.submit("cli", sh2[0]).result(120.0),
                lambda: d1.submit("cli", sh2[1]).result(120.0),
                240.0,
            )
            assert np.array_equal((r0[0] + r1[0]) & MASK, stack["oracle"](x2))
        finally:
            stop_daemon_pair(stack)


    def test_reaper_racing_a_claim_never_yields_none(self):
        """The reaper picks a request as stale BEFORE ``claimed`` is
        set and drops the output right after the claimant's last look
        at ``expired``: the claimant gets LeaseExpired, never None."""

        class ReapedAtClaim(DaemonRequest):
            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if name == "claimed" and value:
                    # What _reaper_loop does to a request it found stale.
                    super().__setattr__("expired", True)
                    super().__setattr__("output", None)

        req = ReapedAtClaim(0, "cli", [np.zeros((M, K))], Lease("t", "cli", 30.0), 5.0)
        req.output = [np.zeros((M, OUT), dtype=np.uint64)]
        req.done.set()
        with pytest.raises(LeaseExpired):
            req.result(1.0)


class TestConstructionFailsFast:
    def test_rescale_without_fx_rejected_by_the_constructor(self):
        """The planner books a Rescale without ``fx`` as unplanned; the
        daemon must refuse that plan with a typed error up front, not
        on the online thread after request 0 produced a layer."""
        base0, _ = LocalChannel.pair()
        mux0 = MuxChannel(base0)
        svc0 = CorrelationService(0, mux0, CFG, ServiceTuning(**TUNING))
        try:
            with pytest.raises(ParameterError, match="FixedPointConfig"):
                InferenceDaemon(svc0, build_graph(), [None, None], fx=None)
            assert "daemon/ctl" not in mux0.stats_by_tag()
        finally:
            mux0.close()


class TestReattachAfterDisconnect:
    """A mid-request transport disconnect heals through the reconnect
    stack; the daemon's resume state renews the live leases during the
    handshake and the client re-attaches by token, bit-exact."""

    def test_mid_request_disconnect_heals_via_lease(self):
        listener = SocketChannel.listen()
        port = listener.port
        schedules = {"server": FaultSchedule(()), "client": FaultSchedule(())}
        channels = {"server": [], "client": []}

        def dialer(name, make):
            def dial():
                chan = FaultyChannel(make(), schedules[name])
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
        tuning = ServiceTuning(**TUNING, take_timeout_s=240.0)
        svc0 = CorrelationService(0, mux0, CFG, tuning, seed=0xA77).start()
        svc1 = CorrelationService(1, mux1, CFG, tuning, seed=0xA77).start()
        rng = np.random.default_rng(0xA77)
        g = build_graph()
        w1s, w2s, oracle = make_model(rng)
        dcfg = DaemonConfig(
            max_inflight=4, lease_ttl_s=5.0, request_timeout_s=120.0
        )
        d0 = InferenceDaemon(svc0, g, [w1s[0], w2s[0]], fx=FX, cfg=dcfg).start()
        d1 = InferenceDaemon(svc1, g, [w1s[1], w2s[1]], fx=FX, cfg=dcfg).start()
        # Leases ride the resume handshake: the daemon's state (service
        # state + lease table) is what the reconnect stack replays.
        rc0.state_provider = d0.resume_state
        rc1.state_provider = d1.resume_state
        try:
            svc0.wait_ready(240.0)
            svc1.wait_ready(240.0)

            # Arm one mid-stream disconnect on the server side; the
            # request's online traffic will trip it.
            chaos = FaultSchedule((FaultEvent("send", 3, DISCONNECT),))
            schedules["server"] = chaos
            for chan in channels["server"]:
                chan.schedule = chaos

            x = rng.integers(-8, 8, (M, K))
            sh = share_input(x, rng)

            def party(d, i):
                req = d.submit("cli", sh[i])
                token = req.lease.token
                assert req.done.wait(120.0)
                # The dropped client comes back and re-attaches to its
                # in-flight (now finished) request by lease token.
                again = d.attach("cli", token)
                assert again is req
                return req.result(120.0)

            r0, r1 = run_concurrently(
                lambda: party(d0, 0), lambda: party(d1, 1), 240.0
            )
            assert np.array_equal((r0[0] + r1[0]) & MASK, oracle(x))
            assert chaos.injected, "scheduled disconnect was not injected"
            assert rc0.reconnects + rc1.reconnects >= 1
            # The handshake replayed the lease table to the peer.
            peer_leases = rc1.peer_state.get("leases")
            assert peer_leases is not None and "cli" in peer_leases
            assert d0.attaches >= 1 and d1.attaches >= 1
            assert d0.failed == 0 and d1.failed == 0
        finally:
            run_concurrently(lambda: d0.stop(60.0), lambda: d1.stop(60.0), 120.0)
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()
            listener.close()
