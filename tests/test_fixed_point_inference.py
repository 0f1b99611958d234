"""End-to-end quantized fixed-point inference through the provisioning
service: plan -> prefill -> online 3-layer MLP with per-layer secure
rescaling, bit-exact against a plaintext fixed-point oracle, plus the
truncation verb's byte model and the planner's Rescale pricing."""

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
    trunc_bytes,
    trunc_draws,
    trunc_messages,
    trunc_via_service,
)
from repro.ot.channel import LocalChannel
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.ppml.plan import CorrelationDemand, plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning, run_online

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
BITS = 16
FX = FixedPointConfig(bits=BITS, frac_bits=4, mag_bits=9)
MASK = ring_mask_u64(BITS)
TUNING = ServiceTuning(
    ring_bits=BITS,
    triple_low=256, triple_high=1024, triple_chunk=512,
)

M, K, H1, H2, OUT = 4, 12, 6, 5, 3


def quantized_model():
    g = Graph("QuantMLP3", (M, K))
    g.add(Linear(H1))
    g.add(Rescale())
    g.add(Activation("relu"))
    g.add(Linear(H2))
    g.add(Rescale())
    g.add(Linear(OUT))
    return g


def fixed_point_oracle(x, w1, w2, w3):
    h = (x @ w1) >> FX.frac_bits
    h = np.maximum(h, 0)
    h = (h @ w2) >> FX.frac_bits
    return ((h @ w3).astype(np.int64) & int(MASK)).astype(np.uint64)


@pytest.fixture(scope="module")
def services():
    svc0, svc1, mux0, mux1 = start_service_pair(CFG, TUNING, seed=0x5C4)
    yield svc0, svc1, mux0, mux1
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()


class TestQuantizedInference:
    """plan -> prefill -> online quantized MLP, bit-exact and stall-free."""

    @pytest.fixture(scope="class")
    def planned_run(self, services):
        svc0, svc1, _, _ = services
        plan = plan_graph(quantized_model(), bits=BITS, fx=FX)
        run_both(
            lambda: plan.prefill(svc0, timeout=240.0),
            lambda: plan.prefill(svc1, timeout=240.0),
            ctx=(svc0.error, svc1.error),
        )
        stall_before = {
            kind: s["stalled_draws"] for kind, s in svc0.pool_stats().items()
        }
        draws_before = dict(svc0.session_draws)

        gen = np.random.default_rng(23)
        x = gen.integers(-8, 8, (M, K))
        w1 = gen.integers(-4, 4, (K, H1))
        w2 = gen.integers(-4, 4, (H1, H2))
        w3 = gen.integers(-4, 4, (H2, OUT))
        shares = {
            key: share_arith_nd(from_signed(mat, BITS), gen, bits=BITS)
            for key, mat in (("x", x), ("w1", w1), ("w2", w2), ("w3", w3))
        }

        def infer(svc, party):
            weights = [shares[key][party] for key in ("w1", "w2", "w3")]
            return lambda: run_online(
                plan, svc.session("fx-mlp"), weights, [shares["x"][party]],
                np.random.default_rng(60 + party),
            )[0]

        z0, z1 = run_both(infer(svc0, 0), infer(svc1, 1),
                          ctx=(svc0.error, svc1.error))
        return {
            "plan": plan,
            "svc0": svc0,
            "got": (z0 + z1) & MASK,
            "expect": fixed_point_oracle(x, w1, w2, w3),
            "stall_before": stall_before,
            "draws_before": draws_before,
        }

    def test_online_output_bit_exact_vs_oracle(self, planned_run):
        """The acceptance bar: multi-layer quantized inference with
        per-layer rescaling EQUALS the plaintext fixed-point oracle."""
        assert np.array_equal(planned_run["got"], planned_run["expect"])

    def test_plan_prices_rescale_layers(self, planned_run):
        """Rescale layers translate into executable truncation demand --
        comparison and B2A COTs, and the comparisons' bit triples."""
        plan = planned_run["plan"]
        rescale_demands = [d for name, d in plan.per_layer if name == "rescale"]
        assert len(rescale_demands) == 2
        d1 = CorrelationDemand().add(trunc_draws(M * H1, FX))
        assert rescale_demands[0].draws == d1.draws
        assert set(d1.as_pool_targets()) == {"cot/fwd", "tri"}
        assert plan.demand.unplanned == {}
        assert len(plan.per_layer) == 6  # trace covered every layer

    def test_session_draws_match_plan_exactly(self, planned_run):
        svc0 = planned_run["svc0"]
        before = planned_run["draws_before"]
        for kind, count in planned_run["plan"].pool_targets().items():
            drawn = svc0.session_draws.get(kind, 0) - before.get(kind, 0)
            assert drawn == count, (kind, drawn, count)

    def test_online_phase_never_stalled(self, planned_run):
        svc0 = planned_run["svc0"]
        after = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}
        for kind in planned_run["plan"].pool_targets():
            assert after[kind] == planned_run["stall_before"].get(kind, 0), kind


class TestUnfusedReference:
    """The unfused matmul -> trunc sequence lives here, as the reference
    the fused ``matmul_rescale_via_service`` verb is held against."""

    def test_fused_block_equals_unfused_sequence(self, services):
        svc0, svc1, _, _ = services
        gen = np.random.default_rng(29)
        x = gen.integers(-8, 8, (M, K))
        w = gen.integers(-4, 4, (K, H1))
        x_sh = share_arith_nd(from_signed(x, BITS), gen, bits=BITS)
        w_sh = share_arith_nd(from_signed(w, BITS), gen, bits=BITS)

        def unfused(session, party, rng):
            z = matmul_via_service(session, x_sh[party], w_sh[party])
            flat = trunc_via_service(session, z.reshape(-1), FX, rng=rng)
            return flat.reshape(z.shape)

        def fused(session, party, rng):
            return matmul_rescale_via_service(
                session, x_sh[party], w_sh[party], FX, rng=rng
            )

        outputs, draws = {}, {}
        for name, verb in (("unfused", unfused), ("fused", fused)):
            before = dict(svc0.session_draws)
            z0, z1 = run_both(
                lambda: verb(svc0.session(name), 0, np.random.default_rng(1)),
                lambda: verb(svc1.session(name), 1, np.random.default_rng(2)),
                ctx=(svc0.error, svc1.error),
            )
            outputs[name] = (z0 + z1) & MASK
            draws[name] = {
                kind: count - before.get(kind, 0)
                for kind, count in svc0.session_draws.items()
                if count != before.get(kind, 0)
            }
        expect = (((x @ w) >> FX.frac_bits).astype(np.int64) & int(MASK)).astype(np.uint64)
        assert np.array_equal(outputs["unfused"], expect)
        assert np.array_equal(outputs["fused"], expect)
        # Same correlation kinds and counts: one plan prices both.
        assert draws["fused"] == draws["unfused"] and draws["fused"]


class TestTruncationService:
    """The truncation verb on a service: byte model and the pools it
    needs."""

    def test_online_trunc_session_bytes_match_model(self, services):
        """Online truncation over a dedicated session sub-channel moves
        exactly trunc_bytes plus the leader's ONE allocation message (an
        offset per drawn pool: cot/fwd and tri) and the per-message mux
        framing."""
        svc0, svc1, mux0, mux1 = services
        name = "trunc-bytes"
        tag = f"sess/{name}".encode()
        gen = np.random.default_rng(8)
        n = 6
        vals = from_signed(gen.integers(-200, 200, n), BITS).astype(np.uint64)
        x0, x1 = share_arith_nd(vals, gen, bits=BITS)
        run_both(
            lambda: trunc_via_service(svc0.session(name), x0, FX),
            lambda: trunc_via_service(svc1.session(name), x1, FX),
            ctx=(svc0.error, svc1.error),
        )
        measured = sum(
            mux.stats_by_tag()[tag.decode()].bytes_sent for mux in (mux0, mux1)
        )
        n_offsets = len(trunc_draws(n, FX))
        assert n_offsets == 2
        messages = trunc_messages(FX) + 1
        expect = (
            trunc_bytes(n, FX)
            + 8 * n_offsets  # party 0's pool-offset announcement
            + (2 + len(tag)) * messages
        )
        assert measured == expect

    def test_truncation_names_both_directions_into_being(self):
        """Truncation draws bit triples, which consume reverse COTs: the
        pools its draws name bring the reverse pool with them, and
        nothing else does."""
        base_a, _ = LocalChannel.pair()
        mux0 = MuxChannel(base_a)
        svc = CorrelationService(0, mux0, CFG, ServiceTuning())
        assert svc.pools == {}
        for kind, key, _ in trunc_draws(4, FX):
            svc.pool(kind, key)
        assert set(svc.pools) == {"cot/fwd", "cot/rev", "tri"}
        mux0.close()


class TestPlannerRescale:
    """Planning Rescale layers: priced with a FixedPointConfig, an
    honest gap without one."""

    def test_rescale_without_fx_is_an_honest_gap(self):
        g = Graph("gap", (2, 3))
        g.add(Rescale())
        plan = plan_graph(g, bits=BITS)
        assert plan.demand.unplanned == {"trunc": 6}

    def test_framework_profiles_price_rescale_graphs(self):
        """The calibrated cost tables fold linear-layer truncation into
        cots_per_mac, so a Rescale-bearing graph must price cleanly
        (not crash, not double-charge)."""
        from repro.ppml.nonlinear import CRYPTFLOW2

        g = Graph("q", (2, 3))
        g.add(Linear(4))
        plain = CRYPTFLOW2.cot_demand(g.nonlinear_counts(), g.total_macs)
        g.add(Rescale())
        with_rescale = CRYPTFLOW2.cot_demand(g.nonlinear_counts(), g.total_macs)
        assert with_rescale == plain
        assert CRYPTFLOW2.online_bytes(g.nonlinear_counts()) == 0

    def test_rescale_validation_fails_before_any_draw(self):
        """A rescale without a FixedPointConfig must fail before a
        triple is drawn or an opening crosses the wire: at the fused
        verb, and at the executor for a plan priced without ``fx``."""
        with pytest.raises(ParameterError, match="FixedPointConfig"):
            matmul_rescale_via_service(None, np.zeros((2, 3)), np.zeros((3, 2)), None)
        g = Graph("gap", (2, 3))
        g.add(Linear(2))
        g.add(Rescale())
        with pytest.raises(ParameterError, match="FixedPointConfig"):
            run_online(plan_graph(g, bits=BITS), None, [np.zeros((3, 2))],
                       [np.zeros((2, 3))], np.random.default_rng(0))
