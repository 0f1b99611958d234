"""Pipelined layer-by-layer prefill: overlap, one-shot watermark
lowering, plan exactness under pipelining, the fused matmul+rescale
session verb, and chunk-fused TPRC production."""

import numpy as np
import pytest
from parties import run_both, start_service_pair

from repro.errors import ParameterError
from repro.ferret.config import FerretConfig
from repro.mpc.matmul import matmul_rescale_via_service, matmul_via_service
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import (
    FixedPointConfig,
    trunc_draws,
    trunc_pair_bit_triples,
    trunc_pair_cots,
    trunc_preproc_messages,
    trunc_via_service,
)
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import ServiceTuning, run_online
from repro.runtime.pool import TriplePool

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
BITS = 16
FX = FixedPointConfig(bits=BITS, frac_bits=4, mag_bits=9)
MASK = ring_mask_u64(BITS)
#: Zero steady-state triple watermarks: production is plan-driven only,
#: so the zero-stall assertions below are deterministic (no background
#: refill competes with planned consumers for raw COT stock).
TUNING = ServiceTuning(
    ring_bits=BITS,
    triple_low=0, triple_high=0, triple_chunk=512,
    rtri_chunk=128,
    enable_rots=False,
)

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
    """Unit semantics of the absolute produce target vs. watermarks."""

    def test_target_drives_deficit_and_goes_inert(self):
        pool = TriplePool("tri", low_watermark=0, high_watermark=0)
        assert not pool.needs_refill()
        pool.raise_produce_target(10)
        assert pool.needs_refill()
        assert pool.deficit == 10
        cols = tuple(np.zeros(10, dtype=np.uint8) for _ in range(3))
        pool.append_columns(cols)
        # Target met: inert, even though nothing was ever reserved.
        assert not pool.needs_refill()
        assert pool.deficit == 0
        # Unlike a watermark, consumption does NOT re-trigger it.
        pool.reserve(10)
        assert not pool.needs_refill()

    def test_target_never_lowers(self):
        pool = TriplePool("tri", low_watermark=0, high_watermark=0)
        pool.raise_produce_target(10)
        pool.raise_produce_target(4)
        assert pool.produce_target == 10

    def test_set_watermarks_lowers(self):
        pool = TriplePool("tri", low_watermark=5, high_watermark=20)
        pool.raise_watermarks(low=50, high=80)
        assert pool.watermarks == (50, 80)
        pool.set_watermarks(5, 20)
        assert pool.watermarks == (5, 20)
        pool.set_watermarks(7)
        assert pool.watermarks == (7, 7)


class TestOneShotPrefill:
    def test_one_shot_restores_pre_plan_watermarks(self, services):
        svc0, svc1, _, _ = services
        before = {k: s for k, s in svc0.pool_stats().items()}
        targets = {"tri": 600, "rtri": 12}
        ctx = (svc0.error, svc1.error)
        run_both(
            lambda: svc0.prefill(targets, 180.0, one_shot=True),
            lambda: svc1.prefill(targets, 180.0, one_shot=True),
            ctx=ctx,
        )
        after = svc0.pool_stats()
        for kind in targets:
            assert after[kind]["low_watermark"] == before[kind]["low_watermark"], kind
            assert after[kind]["high_watermark"] == before[kind]["high_watermark"], kind
        # The stock itself IS there -- only the refill pressure is gone.
        assert svc0.pools["tri"].level >= 600
        assert svc0.pools["rtri"].level >= 12

    def test_default_prefill_keeps_raised_watermarks(self, services):
        svc0, svc1, _, _ = services
        targets = {"rtri": 20}
        ctx = (svc0.error, svc1.error)
        run_both(
            lambda: svc0.prefill(targets, 180.0),
            lambda: svc1.prefill(targets, 180.0),
            ctx=ctx,
        )
        assert svc0.pool_stats()["rtri"]["low_watermark"] >= 20


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
        cot_marks_before = {
            kind: svc0.pools[kind].watermarks for kind in ("cot/fwd", "cot/rev")
        }
        overlap = {}

        pipe0 = plan.prefill_pipelined(svc0, timeout=240.0)
        pipe1 = plan.prefill_pipelined(svc1, timeout=240.0)

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
        pipe0.finish()
        pipe1.finish()
        return {
            "plan": plan,
            "svc0": svc0,
            "pipe0": pipe0,
            "got": (z0 + z1) & MASK,
            "expect": expect,
            "stall_before": stall_before,
            "draws_before": draws_before,
            "cot_marks_before": cot_marks_before,
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

    def test_finish_restored_cot_watermarks(self, planned_run):
        """No inflated refill targets left behind: the raised raw-COT
        consumer watermarks are back at their pre-pipeline values."""
        svc0 = planned_run["svc0"]
        for kind, marks in planned_run["cot_marks_before"].items():
            assert svc0.pools[kind].watermarks == marks, kind

    def test_wait_layer_bounds_checked(self, planned_run):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            planned_run["pipe0"].wait_layer(99)


class TestForwardOnlyPipeline:
    def test_linear_plan_on_forward_only_service(self):
        """A forward-only service (no cot/rev pool) must still pipeline
        a linear-layer plan: the internal matrix-triple margin charged
        to the missing reverse direction is simply dropped (production
        falls back to cot/fwd, which carries its own charge)."""
        tuning = ServiceTuning(
            ring_bits=BITS,
            enable_reverse=False, enable_triples=False,
            enable_ring_triples=False, enable_rots=False,
        )
        svc0, svc1, mux0, mux1 = start_service_pair(CFG, tuning, seed=0x1F0)
        try:
            g = Graph("FwdOnly", (3, 5))
            g.add(Linear(4))
            plan = plan_graph(g, bits=BITS)
            pipe0 = plan.prefill_pipelined(svc0, timeout=120.0)
            pipe1 = plan.prefill_pipelined(svc1, timeout=120.0)
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
            pipe0.finish()
            pipe1.finish()
            assert np.array_equal((z0 + z1) & MASK, (x @ y) & MASK)
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
                svc0.session("fuse-x"), x_sh[0], y_sh[0], FX, mode="exact"
            ),
            lambda: matmul_rescale_via_service(
                svc1.session("fuse-x"), x_sh[1], y_sh[1], FX, mode="exact"
            ),
            ctx=(svc0.error, svc1.error),
        )
        expect = ((x @ y) >> FX.frac_bits).astype(np.int64)
        expect = (expect & int(MASK)).astype(np.uint64)
        assert np.array_equal((z0 + z1) & MASK, expect)

    def test_pair_mode_within_contract(self, services):
        svc0, svc1, _, _ = services
        gen = np.random.default_rng(6)
        x = gen.integers(-4, 4, (2, 6))
        y = gen.integers(-2, 2, (6, 3))
        x_sh = share_arith_nd(from_signed(x, BITS), gen, bits=BITS)
        y_sh = share_arith_nd(from_signed(y, BITS), gen, bits=BITS)
        z0, z1 = run_both(
            lambda: matmul_rescale_via_service(
                svc0.session("fuse-p"), x_sh[0], y_sh[0], FX, mode="pair"
            ),
            lambda: matmul_rescale_via_service(
                svc1.session("fuse-p"), x_sh[1], y_sh[1], FX, mode="pair"
            ),
            ctx=(svc0.error, svc1.error),
        )
        got = (z0 + z1) & MASK
        ref = FX.trunc_reference(
            ((x @ y).astype(np.int64) & int(MASK)).astype(np.uint64).reshape(-1)
        ).reshape(got.shape)
        diff = FX.to_signed((got - ref) & MASK)
        wrap = 1 << (BITS - FX.frac_bits)
        assert np.all(np.isin(diff, [0, 1, -wrap, 1 - wrap])), diff

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
                svc0.session("cnt-fused"), x_sh[0], y_sh[0], FX, mode="exact"
            ),
            lambda: matmul_rescale_via_service(
                svc1.session("cnt-fused"), x_sh[1], y_sh[1], FX, mode="exact"
            ),
            ctx=(svc0.error, svc1.error),
        )
        stats = mux0.stats_by_tag()
        unfused_msgs = stats["sess/cnt-unfused"].messages_sent
        fused = stats["sess/cnt-fused"].messages_sent
        assert fused == unfused_msgs - 1, (fused, unfused_msgs)
        assert np.array_equal((f0 + f1) & MASK, (u0 + u1) & MASK)

    def test_unknown_mode_rejected(self, services):
        svc0, _, _, _ = services
        shares = np.zeros((2, 2), dtype=np.uint64)
        with pytest.raises(ParameterError, match="unknown truncation mode"):
            matmul_rescale_via_service(
                svc0.session("fuse-bad"), shares, shares, FX, mode="nope"
            )


class TestBatchedTprcProduction:
    def test_deep_deficit_fused_into_one_command(self):
        """16 pairs with a 4-pair chunk and stocked inputs run as ONE
        TPRC command (4 chunks fused), paying the millionaires'/B2A
        message rounds once instead of four times."""
        tuning = ServiceTuning(
            ring_bits=BITS,
            triple_low=0, triple_high=0, triple_chunk=512,
            tprc_chunk=4, tprc_batch_chunks=4,
            enable_rots=False,
        )
        svc0, svc1, mux0, mux1 = start_service_pair(CFG, tuning, seed=0x7A7)
        try:
            n = 16
            pool = svc0.trunc_pool(FX.frac_bits)
            svc1.trunc_pool(FX.frac_bits)
            stock = {
                "cot/fwd": n * trunc_pair_cots(BITS, FX.frac_bits) + 512,
                "tri": n * trunc_pair_bit_triples(BITS, FX.frac_bits) + 64,
            }
            ctx = (svc0.error, svc1.error)
            run_both(lambda: svc0.prefill(stock, 240.0),
                     lambda: svc1.prefill(stock, 240.0), ctx=ctx)
            def tprc_messages():
                total = 0
                for mux in (mux0, mux1):
                    stats = mux.stats_by_tag().get("prov/tprc")
                    total += stats.messages_sent if stats else 0
                return total

            before_msgs = tprc_messages()
            run_both(
                lambda: svc0.prefill({pool.name: pool.level + n}, 240.0),
                lambda: svc1.prefill({pool.name: n}, 240.0),
                ctx=ctx,
            )
            # One fused command moves trunc_preproc_messages; four
            # unfused 4-pair chunks would move four times that.
            assert tprc_messages() - before_msgs == trunc_preproc_messages(FX)
            # And the pairs are real: both parties' shares reconstruct.
            p0, p1 = run_both(
                lambda: svc0.session("tb").draw(trunc_draws(n, FX, "pair"))[0][0],
                lambda: svc1.session("tb").draw(trunc_draws(n, FX, "pair"))[0][0],
                ctx=ctx,
            )
            r = (p0.r + p1.r) & MASK
            assert np.array_equal(
                (p0.s + p1.s) & MASK, r >> np.uint64(FX.frac_bits)
            )
        finally:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()
