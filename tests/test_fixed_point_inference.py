"""End-to-end quantized fixed-point inference through the provisioning
service: plan -> prefill -> online 3-layer MLP with per-layer secure
rescaling, bit-exact against a plaintext fixed-point oracle, plus the
pooled truncation-pair (tprc) production path."""

import numpy as np
import pytest
from parties import run_both, start_service_pair

from repro.errors import ParameterError, ServiceError
from repro.ferret.config import FerretConfig
from repro.mpc.matmul import matmul_rescale_via_service, matmul_via_service
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import (
    FixedPointConfig,
    trunc_draws,
    trunc_pair_bit_triples,
    trunc_pair_cots,
    trunc_online_bytes,
    trunc_online_messages,
    trunc_preproc_bytes,
    trunc_preproc_messages,
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
#: enable_rots=False keeps production deterministic for the byte-model
#: test (ROT refill would concurrently drain cot/fwd stock and split
#: TPRC batches); nothing below draws random OTs.
TUNING = ServiceTuning(
    ring_bits=BITS,
    triple_low=256, triple_high=1024, triple_chunk=512,
    rtri_chunk=128, tprc_chunk=64,
    enable_rots=False,
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
        comparison COTs, their bit triples, and B2A ring triples."""
        plan = planned_run["plan"]
        rescale_demands = [d for name, d in plan.per_layer if name == "rescale"]
        assert len(rescale_demands) == 2
        d1 = CorrelationDemand().add(trunc_draws(M * H1, FX, "exact"))
        assert rescale_demands[0].draws == d1.draws
        assert set(d1.as_pool_targets()) == {"cot/fwd", "tri", "rtri"}
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


class TestTruncPairPool:
    """The tprc pool kind: TPRC production, draws, and byte model."""

    def test_drawn_pairs_reconstruct_exactly(self, services):
        svc0, svc1, _, _ = services

        def draw(svc):
            return lambda: svc.session("tprc-d").draw(trunc_draws(9, FX, "pair"))[0][0]

        p0, p1 = run_both(draw(svc0), draw(svc1), ctx=(svc0.error, svc1.error))
        r = (p0.r + p1.r) & MASK
        s = (p0.s + p1.s) & MASK
        assert np.array_equal(s, r >> np.uint64(FX.frac_bits))
        assert svc0.session_draws[f"tprc/{FX.frac_bits}"] >= 9

    def test_pair_mode_trunc_via_service(self, services):
        svc0, svc1, _, _ = services
        gen = np.random.default_rng(4)
        vals = from_signed(
            gen.integers(-(1 << FX.mag_bits) + 1, 1 << FX.mag_bits, 10), BITS
        ).astype(np.uint64)
        x0, x1 = share_arith_nd(vals, gen, bits=BITS)
        z0, z1 = run_both(
            lambda: trunc_via_service(svc0.session("tprc-t"), x0, FX, mode="pair"),
            lambda: trunc_via_service(svc1.session("tprc-t"), x1, FX, mode="pair"),
            ctx=(svc0.error, svc1.error),
        )
        diff = FX.to_signed(((z0 + z1) - FX.trunc_reference(vals)) & MASK)
        wrap = 1 << (BITS - FX.frac_bits)
        # Probabilistic contract: floor or floor+1, except the rare
        # (2^(mag+1-bits)) mask-wrap event worth 2^(bits-f).
        assert np.all(np.isin(diff, [0, 1, -wrap, 1 - wrap])), diff

    def test_tprc_production_bytes_match_model(self, services):
        """One prefilled TPRC batch moves exactly trunc_preproc_bytes
        (plus the known per-message mux tag framing) over the prov/tprc
        sub-channel -- measured per-tag, both ends."""
        svc0, svc1, mux0, mux1 = services
        n = 11
        pool = svc0.trunc_pool(FX.frac_bits)
        svc1.trunc_pool(FX.frac_bits)
        stock = {
            "cot/fwd": n * trunc_pair_cots(BITS, FX.frac_bits) + 512,
            "tri": n * trunc_pair_bit_triples(BITS, FX.frac_bits) + 256,
        }
        ctx = (svc0.error, svc1.error)
        run_both(lambda: svc0.prefill(stock, 240.0),
                 lambda: svc1.prefill(stock, 240.0), ctx=ctx)

        def tag_bytes():
            total = 0
            for mux in (mux0, mux1):
                stats = mux.stats_by_tag().get("prov/tprc")
                total += stats.bytes_sent if stats else 0
            return total

        before = tag_bytes()
        run_both(
            lambda: svc0.prefill({pool.name: pool.level + n}, 240.0),
            lambda: svc1.prefill({pool.name: n}, 240.0),
            ctx=ctx,
        )
        framing = (2 + len(b"prov/tprc")) * trunc_preproc_messages(FX)
        assert tag_bytes() - before == trunc_preproc_bytes(n, FX) + framing

    @pytest.mark.parametrize("mode,n_offsets", [("exact", 3), ("pair", 1)])
    def test_online_trunc_session_bytes_match_model(self, services, mode, n_offsets):
        """Online truncation over a dedicated session sub-channel moves
        exactly trunc_online_bytes plus the leader's ONE allocation
        message (an offset per drawn pool) and the per-message mux
        framing."""
        svc0, svc1, mux0, mux1 = services
        name = f"bytes-{mode}"
        tag = f"sess/{name}".encode()
        gen = np.random.default_rng(8)
        n = 6
        vals = from_signed(gen.integers(-200, 200, n), BITS).astype(np.uint64)
        x0, x1 = share_arith_nd(vals, gen, bits=BITS)
        run_both(
            lambda: trunc_via_service(svc0.session(name), x0, FX, mode=mode),
            lambda: trunc_via_service(svc1.session(name), x1, FX, mode=mode),
            ctx=(svc0.error, svc1.error),
        )
        measured = sum(
            mux.stats_by_tag()[tag.decode()].bytes_sent for mux in (mux0, mux1)
        )
        assert n_offsets == len(trunc_draws(n, FX, mode))
        messages = trunc_online_messages(FX, mode) + 1
        expect = (
            trunc_online_bytes(n, FX, mode)
            + 8 * n_offsets  # party 0's pool-offset announcement
            + (2 + len(tag)) * messages
        )
        assert measured == expect

    def test_trunc_pool_requires_bit_triples(self):
        base_a, _ = LocalChannel.pair()
        mux0 = MuxChannel(base_a)
        bad = ServiceTuning(enable_triples=False, enable_ring_triples=False)
        svc = CorrelationService(0, mux0, CFG, bad)
        with pytest.raises(ServiceError, match="bit-triple"):
            svc.trunc_pool(4)
        mux0.close()


class TestPlannerPairMode:
    """Pair-mode planning: Rescale layers become tprc pool targets."""

    def test_pair_mode_targets_and_total_cots(self):
        g = Graph("pair", (2, 3))
        g.add(Linear(4))
        g.add(Rescale())
        plan = plan_graph(g, bits=BITS, fx=FX, trunc_mode="pair")
        targets = plan.pool_targets()
        assert targets[f"tprc/{FX.frac_bits}"] == 8
        assert "rtri" not in targets and "tri" not in targets
        # The plan table renders the pair demand, not an all-zero row.
        rescale_row = next(r for r in plan.summary_rows() if r[0] == "rescale")
        assert rescale_row[-1] == f"{FX.frac_bits}: 8"
        # total_cots charges the pair's COTs plus its generation triples.
        pair_only = plan_graph(g, bits=BITS, fx=FX, trunc_mode="pair")
        exact = plan_graph(g, bits=BITS, fx=FX, trunc_mode="exact")
        assert pair_only.demand.total_cots(BITS) > 0
        assert exact.pool_targets()["cot/fwd"] == 8 * (BITS + FX.frac_bits)

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
