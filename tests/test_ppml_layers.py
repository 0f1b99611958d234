"""Shape-inference IR tests."""

import pytest

from repro.errors import ParameterError
from repro.ppml.layers import (
    Activation,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Graph,
    LayerNorm,
    Linear,
    MaxPool2d,
    Softmax,
)


class TestConv:
    def test_output_shape_stride_padding(self):
        shape, cost = Conv2d(64, 7, 2, 3).apply((3, 224, 224))
        assert shape == (64, 112, 112)

    def test_macs_formula(self):
        shape, cost = Conv2d(8, 3, 1, 1).apply((4, 16, 16))
        assert shape == (8, 16, 16)
        assert cost.macs == 4 * 9 * 8 * 16 * 16

    def test_params_with_bias(self):
        _, cost = Conv2d(8, 3, bias=True).apply((4, 16, 16))
        assert cost.params == 4 * 9 * 8 + 8

    def test_depthwise_groups(self):
        _, cost = Conv2d(16, 3, 1, 1, groups=16, bias=False).apply((16, 8, 8))
        assert cost.macs == 9 * 16 * 8 * 8
        assert cost.params == 9 * 16

    def test_groups_must_divide(self):
        with pytest.raises(ParameterError):
            Conv2d(8, 3, groups=3).apply((4, 8, 8))


class TestLinearAndNorm:
    def test_linear_on_2d_shape(self):
        shape, cost = Linear(10).apply((128, 768))
        assert shape == (128, 10)
        assert cost.macs == 128 * 768 * 10
        assert cost.params == 768 * 10 + 10

    def test_batchnorm_params_only(self):
        shape, cost = BatchNorm2d().apply((32, 8, 8))
        assert shape == (32, 8, 8)
        assert cost.params == 64 and cost.macs == 0

    def test_layernorm_counts_elements(self):
        shape, cost = LayerNorm().apply((128, 768))
        assert cost.nonlinear == {"layernorm": 128 * 768}


class TestNonlinearLayers:
    def test_activation_counts_elements(self):
        _, cost = Activation("relu").apply((64, 56, 56))
        assert cost.nonlinear == {"relu": 64 * 56 * 56}

    def test_unknown_activation_rejected(self):
        with pytest.raises(ParameterError):
            Activation("swishish").apply((1, 1, 1))

    def test_maxpool_comparisons(self):
        shape, cost = MaxPool2d(3, 2, 1).apply((64, 112, 112))
        assert shape == (64, 56, 56)
        assert cost.nonlinear == {"maxpool_cmp": 64 * 56 * 56 * 8}

    def test_avgpool_truncations(self):
        shape, cost = AvgPool2d(2).apply((32, 8, 8))
        assert shape == (32, 4, 4)
        assert cost.nonlinear == {"avgpool": 32 * 16}

    def test_softmax_counts(self):
        _, cost = Softmax().apply((12, 128, 128))
        assert cost.nonlinear == {"softmax": 12 * 128 * 128}

    def test_global_avg_pool(self):
        shape, _ = GlobalAvgPool().apply((512, 7, 7))
        assert shape == (512, 1, 1)

    def test_flatten(self):
        shape, _ = Flatten().apply((512, 1, 1))
        assert shape == (512,)


class TestGraph:
    def test_sequential_accumulation(self):
        g = Graph("toy", (3, 32, 32))
        g.add(Conv2d(8, 3, 1, 1)).add(Activation("relu")).add(MaxPool2d(2, 2))
        g.add(Flatten()).add(Linear(10))
        assert g.shape == (10,)
        assert g.nonlinear_counts()["relu"] == 8 * 32 * 32
        assert g.total_params > 0

    def test_absorb_merges_costs(self):
        g = Graph("main", (4, 8, 8))
        side = Graph("side", (4, 8, 8))
        side.add(Activation("relu"))
        g.absorb(side)
        assert g.nonlinear_counts() == {"relu": 256}
        assert g.shape == (4, 8, 8)  # shapes untouched

    def test_set_shape_for_concat(self):
        g = Graph("main", (4, 8, 8))
        g.set_shape((12, 8, 8))
        assert g.shape == (12, 8, 8)

    def test_trace_tracks_names(self):
        g = Graph("toy", (3, 8, 8))
        g.add(Conv2d(4, 3, 1, 1)).add(Activation("relu"))
        assert [layer.name for layer, _, _ in g.trace] == ["conv", "act"]

    def test_nonlinear_total(self):
        g = Graph("toy", (2, 4, 4))
        g.add(Activation("relu")).add(MaxPool2d(2, 2))
        assert g.nonlinear_total() == 32 + 2 * 2 * 2 * 3
