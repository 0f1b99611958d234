"""Pipelined layer-by-layer prefill: overlap, prefills that leave no
refill pressure behind, plan exactness under pipelining, and the fused
matmul+rescale session verb."""

import numpy as np
import pytest
from parties import draws_plan, in_background, run_both, start_service_pair

from repro.ferret.config import FerretConfig
from repro.mpc.matmul import matmul_rescale_via_service, matmul_via_service
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig, trunc_via_service
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import InferenceDaemon, ServiceTuning, run_online
from repro.runtime.pool import TriplePool

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
BITS = 16
FX = FixedPointConfig(bits=BITS, frac_bits=4, mag_bits=9)
MASK = ring_mask_u64(BITS)
#: Derived production is plan-driven only (no derived pool has a
#: standing refill), so the zero-stall assertions below are
#: deterministic.
TUNING = ServiceTuning(ring_bits=BITS, triple_chunk=512)

M, K, H, OUT = 4, 8, 6, 48


@pytest.fixture(scope="module")
def services():
    svc0, svc1, mux0, mux1 = start_service_pair(CFG, TUNING, seed=0x1CE)
    yield svc0, svc1, mux0, mux1
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()


def pipelined_model():
    """First block small, last linear deliberately heavy: its matrix
    triple takes long enough that the first block's online phase
    observably starts while it is still unproduced."""
    g = Graph("PipeTest", (M, K))
    g.add(Linear(H))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(OUT))
    return g


class TestPoolProduceTargets:
    """Unit semantics of the absolute produce target."""

    def test_target_drives_deficit_and_goes_inert(self):
        pool = TriplePool("tri")
        assert not pool.needs_refill()
        pool.raise_produce_target(10)
        assert pool.needs_refill()
        assert pool.deficit == 10
        cols = tuple(np.zeros(10, dtype=np.uint8) for _ in range(3))
        pool.append_columns(cols)
        # Target met: inert, even though nothing was ever reserved.
        assert not pool.needs_refill()
        assert pool.deficit == 0
        # Consumption of produced stock does NOT re-trigger it.
        pool.reserve(10)
        assert not pool.needs_refill()

    def test_target_never_lowers(self):
        pool = TriplePool("tri")
        pool.raise_produce_target(10)
        pool.raise_produce_target(4)
        assert pool.produce_target == 10


def small_shares(gen, shape):
    return share_arith_nd(from_signed(gen.integers(-4, 4, shape), BITS), gen, bits=BITS)


class TestOneShotPrefill:
    def test_every_way_of_asking_leaves_no_pressure(self, services):
        """Every way to ask for production -- a draw-list plan,
        ``plan.prefill``, a finished pipeline, a daemon's requests --
        raises absolute produce targets only: afterwards every target
        is met, so no refill pressure is left behind on either party."""
        svc0, svc1, _, _ = services
        # Shapes no other test here draws: TestPipelinedPrefill pins
        # that its last matrix triple was never produced before it.
        g = Graph("NoPressure", (2, K))
        for layer in (Linear(4), Rescale(), Activation("relu"), Linear(3)):
            g.add(layer)
        plan = plan_graph(g, bits=BITS, fx=FX)
        gen = np.random.default_rng(0x5A)
        weights = [small_shares(gen, (K, 4)), small_shares(gen, (4, 3))]
        x = small_shares(gen, (2, K))
        ctx = (svc0.error, svc1.error)

        def assert_no_pressure(way):
            for svc in (svc0, svc1):
                for kind, pool in svc.pools.items():
                    assert pool.produce_target <= pool.produced, (way, svc.party, kind)

        draws = draws_plan([("tri", (), 600), ("mtri", (3, 5, 2), 2)], BITS)
        run_both(lambda: draws.prefill(svc0, 180.0),
                 lambda: draws.prefill(svc1, 180.0), ctx=ctx)
        assert svc0.pools["tri"].level >= 600 and svc0.pools["mtri/3x5x2"].level >= 2
        assert_no_pressure("draw-list plan")

        run_both(lambda: plan.prefill(svc0, 180.0),
                 lambda: plan.prefill(svc1, 180.0), ctx=ctx)
        assert_no_pressure("plan.prefill")

        def pipelined(svc, party):
            pipe = plan.prefill_pipelined(svc, timeout=180.0)
            join = in_background(pipe)
            run_online(
                plan, svc.session("no-pressure"), [w[party] for w in weights],
                [x[party]], np.random.default_rng(party), pipe.wait_layer,
            )
            join()

        run_both(lambda: pipelined(svc0, 0), lambda: pipelined(svc1, 1), ctx=ctx)
        assert_no_pressure("finished pipeline")

        daemons = [
            InferenceDaemon(svc, g, [w[party] for w in weights], fx=FX).start()
            for party, svc in enumerate((svc0, svc1))
        ]
        run_both(lambda: daemons[0].submit("np", x[0]).result(120.0),
                 lambda: daemons[1].submit("np", x[1]).result(120.0), ctx=ctx)
        run_both(lambda: daemons[0].stop(60.0), lambda: daemons[1].stop(60.0), ctx=ctx)
        assert_no_pressure("InferenceDaemon.stop")


class TestPipelinedPrefill:
    """plan -> prefill_pipelined -> overlapped online, end to end."""

    @pytest.fixture(scope="class")
    def planned_run(self, services):
        svc0, svc1, _, _ = services
        plan = plan_graph(pipelined_model(), bits=BITS, fx=FX)
        last_mtri = f"mtri/{M}x{H}x{OUT}"

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
        overlap = {}

        pipe0 = plan.prefill_pipelined(svc0, timeout=240.0)
        pipe1 = plan.prefill_pipelined(svc1, timeout=240.0)
        joins = [in_background(pipe0), in_background(pipe1)]

        def infer(svc, pipe, party):
            def wait_layer(gate):
                pipe.wait_layer(gate)
                if party == 0 and not overlap:
                    # The online phase is about to start; the heavy last
                    # layer must still be in production behind it.
                    overlap["last_mtri_produced_at_first_online"] = (
                        svc.pools[last_mtri].produced
                    )

            return lambda: run_online(
                plan, svc.session("pipe-mlp"),
                [shares["w1"][party], shares["w2"][party]],
                [shares["x"][party]],
                np.random.default_rng(70 + party), wait_layer,
            )[0]

        z0, z1 = run_both(
            infer(svc0, pipe0, 0), infer(svc1, pipe1, 1),
            ctx=(svc0.error, svc1.error),
        )
        for join in joins:
            join()
        return {
            "plan": plan,
            "svc0": svc0,
            "pipe0": pipe0,
            "got": (z0 + z1) & MASK,
            "expect": expect,
            "stall_before": stall_before,
            "draws_before": draws_before,
            "overlap": overlap,
        }

    def test_online_output_bit_exact(self, planned_run):
        assert np.array_equal(planned_run["got"], planned_run["expect"])

    def test_online_started_while_later_layers_producing(self, planned_run):
        """The point of the pipeline: when layer 0's online phase was
        cleared to start, the last layer's matrix triple had not been
        produced yet."""
        assert planned_run["overlap"]["last_mtri_produced_at_first_online"] == 0

    def test_layers_ready_in_order(self, planned_run):
        pipe0 = planned_run["pipe0"]
        times = [pipe0.ready_elapsed(i) for i in range(pipe0.n_layers)]
        assert all(t is not None for t in times)
        assert times == sorted(times)

    def test_session_draws_match_plan_exactly(self, planned_run):
        svc0 = planned_run["svc0"]
        before = planned_run["draws_before"]
        for kind, count in planned_run["plan"].pool_targets().items():
            drawn = svc0.session_draws.get(kind, 0) - before.get(kind, 0)
            assert drawn == count, (kind, drawn, count)

    def test_no_planned_pool_stalled(self, planned_run):
        """Every draw was gated on its layer's readiness, so no planned
        pool production ever ran on the online critical path."""
        svc0 = planned_run["svc0"]
        after = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}
        for kind in planned_run["plan"].pool_targets():
            assert after[kind] == planned_run["stall_before"].get(kind, 0), kind

    def test_wait_layer_bounds_checked(self, planned_run):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            planned_run["pipe0"].wait_layer(99)


class TestForwardOnlyPipeline:
    def test_linear_plan_on_forward_only_service(self):
        """A linear-layer plan pipelines on forward COTs alone: matrix
        triples draw only ``cot/fwd``, so no party builds or extends a
        ``cot/rev`` pool."""
        tuning = ServiceTuning(ring_bits=BITS)
        svc0, svc1, mux0, mux1 = start_service_pair(CFG, tuning, seed=0x1F0)
        try:
            g = Graph("FwdOnly", (3, 5))
            g.add(Linear(4))
            plan = plan_graph(g, bits=BITS)
            pipe0 = plan.prefill_pipelined(svc0, timeout=120.0)
            pipe1 = plan.prefill_pipelined(svc1, timeout=120.0)
            joins = [in_background(pipe0), in_background(pipe1)]
            gen = np.random.default_rng(9)
            x = gen.integers(0, 1 << BITS, (3, 5), dtype=np.uint64)
            y = gen.integers(0, 1 << BITS, (5, 4), dtype=np.uint64)
            x_sh = share_arith_nd(x, gen, bits=BITS)
            y_sh = share_arith_nd(y, gen, bits=BITS)

            def go(svc, pipe, party):
                return lambda: run_online(
                    plan, svc.session("fwd-mm"), [y_sh[party]], [x_sh[party]],
                    np.random.default_rng(party), pipe.wait_layer,
                )[0]

            z0, z1 = run_both(
                go(svc0, pipe0, 0), go(svc1, pipe1, 1),
                ctx=(svc0.error, svc1.error),
            )
            for join in joins:
                join()
            assert np.array_equal((z0 + z1) & MASK, (x @ y) & MASK)
            for svc in (svc0, svc1):
                assert "cot/rev" not in svc.pools and svc.extends["rev"] == 0
        finally:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()


class TestFusedMatmulRescale:
    def test_exact_mode_matches_oracle(self, services):
        svc0, svc1, _, _ = services
        gen = np.random.default_rng(5)
        x = gen.integers(-8, 8, (3, 5))
        y = gen.integers(-4, 4, (5, 4))
        x_sh = share_arith_nd(from_signed(x, BITS), gen, bits=BITS)
        y_sh = share_arith_nd(from_signed(y, BITS), gen, bits=BITS)
        z0, z1 = run_both(
            lambda: matmul_rescale_via_service(
                svc0.session("fuse-x"), x_sh[0], y_sh[0], FX
            ),
            lambda: matmul_rescale_via_service(
                svc1.session("fuse-x"), x_sh[1], y_sh[1], FX
            ),
            ctx=(svc0.error, svc1.error),
        )
        expect = ((x @ y) >> FX.frac_bits).astype(np.int64)
        expect = (expect & int(MASK)).astype(np.uint64)
        assert np.array_equal((z0 + z1) & MASK, expect)

    def test_one_allocation_round_trip(self, services):
        """Every verb announces ALL its pool offsets in one message,
        so the fused session moves one message fewer than the unfused
        matmul-then-trunc sequence (kept here as the reference) and
        reconstructs the same values."""
        svc0, svc1, mux0, _ = services
        gen = np.random.default_rng(7)
        x = gen.integers(-4, 4, (2, 3))
        y = gen.integers(-2, 2, (3, 2))
        x_sh = share_arith_nd(from_signed(x, BITS), gen, bits=BITS)
        y_sh = share_arith_nd(from_signed(y, BITS), gen, bits=BITS)

        def unfused(svc, party):
            def run():
                session = svc.session("cnt-unfused")
                z = matmul_via_service(session, x_sh[party], y_sh[party])
                return trunc_via_service(session, z.reshape(-1), FX).reshape(z.shape)

            return run

        u0, u1 = run_both(
            unfused(svc0, 0), unfused(svc1, 1), ctx=(svc0.error, svc1.error)
        )
        f0, f1 = run_both(
            lambda: matmul_rescale_via_service(
                svc0.session("cnt-fused"), x_sh[0], y_sh[0], FX
            ),
            lambda: matmul_rescale_via_service(
                svc1.session("cnt-fused"), x_sh[1], y_sh[1], FX
            ),
            ctx=(svc0.error, svc1.error),
        )
        stats = mux0.stats_by_tag()
        unfused_msgs = stats["sess/cnt-unfused"].messages_sent
        fused = stats["sess/cnt-fused"].messages_sent
        assert fused == unfused_msgs - 1, (fused, unfused_msgs)
        assert np.array_equal((f0 + f1) & MASK, (u0 + u1) & MASK)
