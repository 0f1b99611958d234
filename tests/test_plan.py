"""Preprocessing planner: exact per-layer correlation demand."""

import pytest

from repro.errors import ParameterError
from repro.mpc.compare import cots_needed, triples_needed
from repro.mpc.matmul import matmul_draws
from repro.mpc.relu import relu_draws
from repro.mpc.truncation import FixedPointConfig
from repro.ppml.layers import Activation, Conv2d, Graph, Linear, MaxPool2d, Rescale
from repro.ppml.models import resnet18
from repro.ppml.plan import CorrelationDemand, plan_graph

BITS = 16


def tiny_mlp():
    g = Graph("TinyMLP", (4, 16))
    g.add(Linear(8))
    g.add(Activation("relu"))
    g.add(Linear(4))
    return g


class TestGraphTrace:
    def test_trace_records_layers_and_shapes(self):
        g = tiny_mlp()
        assert len(g.trace) == 3
        layer, in_shape, out_shape = g.trace[0]
        assert isinstance(layer, Linear)
        assert in_shape == (4, 16) and out_shape == (4, 8)

    def test_absorb_merges_traces(self):
        g = Graph("main", (3, 8, 8))
        side = Graph("side", (3, 8, 8))
        side.add(Conv2d(4, 1))
        g.absorb(side)
        assert len(g.trace) == 1


class TestLayerDemand:
    def test_relu_demand_mirrors_service_draws(self):
        n = 32
        g = Graph("relu", (n,))
        g.add(Activation("relu"))
        plan = plan_graph(g, bits=BITS)
        assert plan.demand.draws == CorrelationDemand().add(relu_draws(n, BITS)).draws
        assert plan.pool_targets() == {
            "cot/fwd": cots_needed(n, BITS - 1) + n,
            "cot/rev": n,
            "tri": triples_needed(n, BITS - 1),
        }

    def test_linear_becomes_matrix_triple(self):
        plan = plan_graph(tiny_mlp(), bits=BITS)
        matrix = {k: n for k, n in plan.pool_targets().items() if k.startswith("mtri/")}
        assert matrix == {"mtri/4x16x8": 1, "mtri/4x8x4": 1}

    def test_conv_becomes_im2col_matmul_per_group(self):
        g = Graph("conv", (8, 10, 10))
        g.add(Conv2d(16, 3, stride=1, padding=1, groups=2))
        plan = plan_graph(g, bits=BITS)
        # oh = ow = 10; k = (8/2)*9 = 36; n = 16/2 = 8; one triple per group.
        assert plan.pool_targets() == {"mtri/100x36x8": 2}

    def test_maxpool_charges_one_relu_per_comparison(self):
        g = Graph("mp", (2, 8, 8))
        g.add(MaxPool2d(2, 2))
        plan = plan_graph(g, bits=BITS)
        cmps = 2 * 4 * 4 * 3  # c*oh*ow*(k^2-1)
        assert plan.demand.draws == CorrelationDemand().add(relu_draws(cmps, BITS)).draws
        assert plan.pool_targets()["tri"] == triples_needed(cmps, BITS - 1)

    def test_unplanned_kinds_are_visible(self):
        g = Graph("gelu", (4, 8))
        g.add(Activation("gelu"))
        plan = plan_graph(g, bits=BITS)
        assert plan.pool_targets() == {}
        assert plan.demand.unplanned == {"gelu": 32}

    def test_relu6_is_not_silently_planned_as_relu(self):
        """No relu6 service protocol exists (it needs ~2 comparisons per
        element); it must surface as a coverage gap, not fake demand."""
        g = Graph("relu6", (4, 8))
        g.add(Activation("relu6"))
        plan = plan_graph(g, bits=BITS)
        assert plan.pool_targets() == {}
        assert plan.demand.unplanned == {"relu6": 32}


class TestPlanAggregation:
    def test_total_is_sum_of_layers(self):
        plan = plan_graph(tiny_mlp(), bits=BITS)
        total = CorrelationDemand()
        for _, d in plan.per_layer:
            total.merge(d)
        assert total.draws == plan.demand.draws
        assert total.as_pool_targets() == plan.pool_targets()

    def test_pool_targets_mapping(self):
        plan = plan_graph(tiny_mlp(), bits=BITS)
        targets = plan.pool_targets()
        n_relu = 4 * 8
        assert targets["cot/fwd"] == cots_needed(n_relu, BITS - 1) + n_relu
        assert targets["cot/rev"] == n_relu
        assert targets["tri"] == triples_needed(n_relu, BITS - 1)
        assert targets["mtri/4x16x8"] == 1
        assert targets["mtri/4x8x4"] == 1
        assert "rtri" not in targets  # nothing demanded none planned

    def test_mul_and_matmul_demand_helpers(self):
        d = CorrelationDemand().add(matmul_draws(2, 3, 4), times=5)
        d.merge(CorrelationDemand().add([("rtri", (), 7)]))
        assert d.as_pool_targets() == {"mtri/2x3x4": 5, "rtri": 7}

    def test_total_cots_accounts_derived_production(self):
        d = CorrelationDemand().add([
            ("cot/fwd", (), 10), ("cot/rev", (), 20), ("tri", (), 5),
            ("rtri", (), 3), ("mtri", (2, 3, 4), 2),
        ])
        expect = 10 + 20 + 5 * 2 + 3 * 16 * 2 + 2 * (2 * 3 + 3 * 4) * 16
        assert d.total_cots(ring_bits=16) == expect


class TestRealModels:
    def test_resnet18_plans_without_error(self):
        plan = plan_graph(resnet18(), bits=32)
        targets = plan.pool_targets()
        matrix = sum(n for kind, n in targets.items() if kind.startswith("mtri/"))
        assert matrix > 20  # one per conv/linear
        assert targets["cot/fwd"] > 0 and targets["tri"] > 0
        assert plan.demand.total_cots(32) > targets["cot/fwd"]
        # im2col shape of the stem conv: 112*112 outputs, 3*49 inputs, 64 out.
        assert f"mtri/{112 * 112}x147x64" in targets
        assert len(plan.summary_rows()) == 1 + len(plan.per_layer)

    @pytest.mark.parametrize("mode", ["pair", "wrap", "exact"])
    def test_summary_rows_show_every_kind_the_plan_draws(self, mode):
        """The printed table has a column for every pool kind in
        ``pool_targets()`` -- the B2A ring triples of an exact-mode
        Rescale included -- and each layer's cell shows its count."""
        g = tiny_mlp()
        g.add(Rescale())
        fx = FixedPointConfig(bits=BITS, frac_bits=4, mag_bits=9)
        plan = plan_graph(g, bits=BITS, fx=fx, trunc_mode=mode)
        header, *rows = plan.summary_rows()
        def column_of(pool_name):  # "mtri/4x16x8" sits under "mtri"
            (column,) = [
                c for c in header[1:] if pool_name == c or pool_name.startswith(c + "/")
            ]
            return column

        assert header[0] == "layer"
        assert {column_of(name) for name in plan.pool_targets()} == set(header[1:])
        rescale = dict(zip(header, rows[-1]))
        for name, count in plan.per_layer[-1][1].as_pool_targets().items():
            assert str(count) in rescale[column_of(name)], (name, rescale)

    def test_prefill_rejects_ring_width_mismatch(self):
        class FakeTuning:
            ring_bits = 8

        class FakeService:
            tuning = FakeTuning()

        plan = plan_graph(tiny_mlp(), bits=BITS)
        with pytest.raises(ParameterError):
            plan.prefill(FakeService())
