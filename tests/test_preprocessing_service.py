"""Preprocessing/online phase split through the provisioning service:
pooled matrix triples and truncation pairs, planner-driven prefill,
stall-free online.
"""

import numpy as np
import pytest
from parties import run_both, start_service_pair

from repro.ferret.config import FerretConfig
from repro.mpc.matmul import matmul_draws, matmul_via_service
from repro.mpc.sharing import share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.ot.channel import LocalChannel
from repro.ppml.layers import Activation, Graph, Linear
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning, run_online

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
BITS = 16
TUNING = ServiceTuning(
    ring_bits=BITS,
    triple_low=256, triple_high=1024, triple_chunk=512,
)
MASK = ring_mask_u64(BITS)


def tiny_model():
    g = Graph("TinyMLP", (4, 12))
    g.add(Linear(6))
    g.add(Activation("relu"))
    g.add(Linear(3))
    return g


def share_matrix(values, gen):
    return share_arith_nd(values, gen, bits=BITS)


@pytest.fixture(scope="module")
def services():
    svc0, svc1, mux0, mux1 = start_service_pair(CFG, TUNING, seed=0x77)
    yield svc0, svc1
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()


class TestPooledArithmeticTriples:
    def test_matrix_triple_draws_reconstruct(self, services):
        svc0, svc1 = services

        def draw(svc):
            return lambda: svc.session("mtri-t").draw(matmul_draws(3, 7, 5))[0][0]

        t0, t1 = run_both(draw(svc0), draw(svc1), ctx=(svc0.error, svc1.error))
        a = (t0.a + t1.a) & MASK
        b = (t0.b + t1.b) & MASK
        assert np.array_equal((t0.c + t1.c) & MASK, (a @ b) & MASK)

    def test_bit_triples_move_no_bytes(self, services):
        """Both parties hash bit triples out of COT ranges they already
        hold: producing them sends nothing on ``prov/tri``."""
        svc0, svc1 = services
        n = 700  # two TRI commands at triple_chunk 512
        ctx = (svc0.error, svc1.error)

        def tri_bytes():
            stats = [svc.mux.stats_by_tag().get("prov/tri") for svc in (svc0, svc1)]
            return sum(st.bytes_sent + st.bytes_received for st in stats if st is not None)

        before = tri_bytes()
        produced = svc0.pool("tri").produced
        svc1.pool("tri")
        targets = {"tri": n}
        run_both(lambda: svc0.prefill(targets, 120.0),
                 lambda: svc1.prefill(targets, 120.0), ctx=ctx)
        t0, t1 = (batches[0] for batches in run_both(
            lambda: svc0.session("tri-bytes").draw([("tri", (), n)])[0],
            lambda: svc1.session("tri-bytes").draw([("tri", (), n)])[0],
            ctx=ctx,
        ))
        assert svc0.pools["tri"].produced - produced >= n
        assert np.array_equal(t0.c ^ t1.c, (t0.a ^ t1.a) & (t0.b ^ t1.b))
        assert tri_bytes() == before == 0

    def test_repeated_prefill_waits_for_fresh_production(self, services):
        """A second prefill after consumption must provide NEW items on
        both parties -- the follower's wait cannot be satisfied by
        historical production alone."""
        svc0, svc1 = services
        kind = svc0.pool("tri").name
        svc1.pool("tri")
        targets = {kind: 15}
        ctx = (svc0.error, svc1.error)
        run_both(lambda: svc0.prefill(targets, 120.0),
                 lambda: svc1.prefill(targets, 120.0), ctx=ctx)
        run_both(
            lambda: svc0.session("pre-again").draw([("tri", (), 15)]),
            lambda: svc1.session("pre-again").draw([("tri", (), 15)]),
            ctx=ctx,
        )
        drawn_after_consume = svc1.pools[kind].stats.items_drawn
        run_both(lambda: svc0.prefill(targets, 120.0),
                 lambda: svc1.prefill(targets, 120.0), ctx=ctx)
        assert svc0.pools[kind].level >= 15
        assert svc1.pools[kind].produced - drawn_after_consume >= 15

    def test_matmul_via_service_reconstructs(self, services):
        svc0, svc1 = services
        gen = np.random.default_rng(5)
        x = gen.integers(0, 1 << BITS, (4, 6), dtype=np.uint64)
        y = gen.integers(0, 1 << BITS, (6, 3), dtype=np.uint64)
        x0, x1 = share_matrix(x, gen)
        y0, y1 = share_matrix(y, gen)
        z0, z1 = run_both(
            lambda: matmul_via_service(svc0.session("mm-t"), x0, y0),
            lambda: matmul_via_service(svc1.session("mm-t"), x1, y1),
            ctx=(svc0.error, svc1.error),
        )
        assert np.array_equal((z0 + z1) & MASK, (x @ y) & MASK)


class TestPlannedInference:
    """plan -> prefill -> online inference, end to end and stall-free."""

    @pytest.fixture(scope="class")
    def planned_run(self, services):
        svc0, svc1 = services
        graph = tiny_model()
        plan = plan_graph(graph, bits=BITS)
        run_both(
            lambda: plan.prefill(svc0, timeout=240.0),
            lambda: plan.prefill(svc1, timeout=240.0),
            ctx=(svc0.error, svc1.error),
        )
        # Snapshot AFTER prefill so the assertions below are about the
        # online phase only.
        stall_before = {
            kind: s["stalled_draws"] for kind, s in svc0.pool_stats().items()
        }
        draws_before = dict(svc0.session_draws)

        gen = np.random.default_rng(17)
        # Tiny magnitudes so the plaintext reference stays in-ring.
        x = gen.integers(0, 4, (4, 12)).astype(np.uint64)
        w1 = gen.integers(0, 3, (12, 6)).astype(np.uint64)
        w2 = gen.integers(0, 3, (6, 3)).astype(np.uint64)
        x_sh = share_matrix(x, gen)
        w1_sh = share_matrix(w1, gen)
        w2_sh = share_matrix(w2, gen)

        def infer(svc, party):
            return lambda: run_online(
                plan, svc.session("planned-mlp"),
                [w1_sh[party], w2_sh[party]], [x_sh[party]],
                np.random.default_rng(60 + party),
            )[0]

        z0, z1 = run_both(infer(svc0, 0), infer(svc1, 1),
                          ctx=(svc0.error, svc1.error))
        expect = np.maximum(0, (x @ w1).astype(np.int64)).astype(np.uint64)
        expect = (expect @ w2) & MASK
        return {
            "plan": plan,
            "svc0": svc0,
            "got": (z0 + z1) & MASK,
            "expect": expect,
            "stall_before": stall_before,
            "draws_before": draws_before,
        }

    def test_online_inference_correct(self, planned_run):
        assert np.array_equal(planned_run["got"], planned_run["expect"])

    def test_prefill_met_every_target(self, planned_run):
        """After prefill the leader holds >= demand in every pool (the
        online phase then consumed it, so check production totals)."""
        svc0 = planned_run["svc0"]
        for kind, count in planned_run["plan"].pool_targets().items():
            assert svc0.pools[kind].produced >= count, kind

    def test_online_phase_never_stalled(self, planned_run):
        """The whole point of the preprocessing phase: zero production
        stalls during the online phase for every planned pool kind."""
        svc0 = planned_run["svc0"]
        after = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}
        for kind in planned_run["plan"].pool_targets():
            assert after[kind] == planned_run["stall_before"].get(kind, 0), kind

    def test_session_draws_match_plan_exactly(self, planned_run):
        """The planner's demand is exact: consumer draws == plan."""
        svc0 = planned_run["svc0"]
        before = planned_run["draws_before"]
        targets = planned_run["plan"].pool_targets()
        for kind, count in targets.items():
            drawn = svc0.session_draws.get(kind, 0) - before.get(kind, 0)
            assert drawn == count, (kind, drawn, count)


class TestServiceValidation:
    def test_prefill_unknown_kind_fails_loudly(self):
        base_a, _ = LocalChannel.pair()
        mux0 = MuxChannel(base_a)
        svc0 = CorrelationService(0, mux0, CFG, TUNING)
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="unknown pool kind"):
            svc0.prefill({"mtri/9x9x9": 1}, timeout=1.0)
        mux0.close()
