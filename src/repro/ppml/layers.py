"""Layer IR with shape inference for the PPML model zoo.

Private-inference cost models need, per network: how many multiply-
accumulates the linear layers perform (HE side) and how many elements
pass through each *kind* of nonlinearity (OT side) -- ReLU and MaxPool
comparisons for CNNs; GELU, Softmax, LayerNorm for Transformers.  This
module is a minimal from-scratch shape-inference framework: layers
consume a shape tuple and report output shape, MACs, parameters and
nonlinear work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ParameterError

#: Nonlinear operation kinds the framework cost models price.
NONLINEAR_KINDS = ("relu", "relu6", "gelu", "softmax", "layernorm", "maxpool_cmp", "avgpool", "silu", "trunc")


@dataclass
class LayerCost:
    """Cost contribution of one layer application."""

    macs: int = 0
    params: int = 0
    nonlinear: dict = field(default_factory=dict)  # kind -> element count

    def merge(self, other: "LayerCost") -> None:
        self.macs += other.macs
        self.params += other.params
        for kind, count in other.nonlinear.items():
            self.nonlinear[kind] = self.nonlinear.get(kind, 0) + count


class Layer:
    """Base layer: subclasses implement apply(shape) -> (shape, LayerCost)."""

    name = "layer"

    def apply(self, shape: tuple) -> tuple:
        raise NotImplementedError


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


@dataclass
class Conv2d(Layer):
    """2D convolution on (C, H, W) shapes; groups support depthwise."""

    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    bias: bool = True
    name: str = "conv"

    def apply(self, shape: tuple) -> tuple:
        c, h, w = shape
        if c % self.groups or self.out_channels % self.groups:
            raise ParameterError("channels must divide groups")
        oh = _conv_out(h, self.kernel, self.stride, self.padding)
        ow = _conv_out(w, self.kernel, self.stride, self.padding)
        k2 = self.kernel * self.kernel
        per_out = (c // self.groups) * k2
        macs = per_out * self.out_channels * oh * ow
        params = per_out * self.out_channels + (self.out_channels if self.bias else 0)
        return (self.out_channels, oh, ow), LayerCost(macs=macs, params=params)


@dataclass
class Linear(Layer):
    """Fully connected layer on (..., features) shapes."""

    out_features: int
    bias: bool = True
    name: str = "linear"

    def apply(self, shape: tuple) -> tuple:
        in_features = shape[-1]
        batch = math.prod(shape[:-1]) if len(shape) > 1 else 1
        macs = batch * in_features * self.out_features
        params = in_features * self.out_features + (self.out_features if self.bias else 0)
        return shape[:-1] + (self.out_features,), LayerCost(macs=macs, params=params)


@dataclass
class BatchNorm2d(Layer):
    """Batch norm (folded into the preceding conv at inference)."""

    name: str = "bn"

    def apply(self, shape: tuple) -> tuple:
        return shape, LayerCost(params=2 * shape[0])


@dataclass
class Activation(Layer):
    """Elementwise nonlinearity: relu / relu6 / gelu / silu."""

    kind: str = "relu"
    name: str = "act"

    def apply(self, shape: tuple) -> tuple:
        if self.kind not in NONLINEAR_KINDS:
            raise ParameterError(f"unknown activation {self.kind!r}")
        return shape, LayerCost(nonlinear={self.kind: math.prod(shape)})


@dataclass
class Rescale(Layer):
    """Fixed-point rescaling: secure truncation of every element.

    Quantized inference inserts one after each linear/conv layer so the
    scale stays at 2^f instead of doubling per product.  Shape-neutral;
    charges one ``trunc`` nonlinear element per value, which the
    preprocessing planner expands into exact truncation demand
    (comparison and B2A COTs + bit triples) for the
    :class:`repro.mpc.truncation` protocol.
    """

    name: str = "rescale"

    def apply(self, shape: tuple) -> tuple:
        return shape, LayerCost(nonlinear={"trunc": math.prod(shape)})


@dataclass
class MaxPool2d(Layer):
    """Max pooling: each output needs (window - 1) secure comparisons."""

    kernel: int
    stride: int = 2
    padding: int = 0
    name: str = "maxpool"

    def apply(self, shape: tuple) -> tuple:
        c, h, w = shape
        oh = _conv_out(h, self.kernel, self.stride, self.padding)
        ow = _conv_out(w, self.kernel, self.stride, self.padding)
        cmps = c * oh * ow * (self.kernel * self.kernel - 1)
        return (c, oh, ow), LayerCost(nonlinear={"maxpool_cmp": cmps})


@dataclass
class AvgPool2d(Layer):
    """Average pooling: linear, but needs secure truncation per output."""

    kernel: int
    stride: int = 0  # 0 = same as kernel
    name: str = "avgpool"

    def apply(self, shape: tuple) -> tuple:
        c, h, w = shape
        stride = self.stride or self.kernel
        oh = _conv_out(h, self.kernel, stride, 0)
        ow = _conv_out(w, self.kernel, stride, 0)
        return (c, oh, ow), LayerCost(nonlinear={"avgpool": c * oh * ow})


@dataclass
class GlobalAvgPool(Layer):
    """Adaptive average pool to 1x1."""

    name: str = "gap"

    def apply(self, shape: tuple) -> tuple:
        c = shape[0]
        return (c, 1, 1), LayerCost(nonlinear={"avgpool": c})


@dataclass
class Flatten(Layer):
    name: str = "flatten"

    def apply(self, shape: tuple) -> tuple:
        return (math.prod(shape),), LayerCost()


@dataclass
class Softmax(Layer):
    """Softmax over the last axis; priced per input element."""

    name: str = "softmax"

    def apply(self, shape: tuple) -> tuple:
        return shape, LayerCost(nonlinear={"softmax": math.prod(shape)})


@dataclass
class LayerNorm(Layer):
    """LayerNorm over the last axis; priced per input element."""

    name: str = "layernorm"

    def apply(self, shape: tuple) -> tuple:
        return shape, LayerCost(
            params=2 * shape[-1], nonlinear={"layernorm": math.prod(shape)}
        )


class Graph:
    """A model: named layers applied along a (possibly branching) graph.

    Branching (residuals, dense blocks, fire modules) is handled by the
    builder code in :mod:`repro.ppml.models` -- this class only
    accumulates costs and tracks shapes for a *sequence*; branch
    builders call :meth:`absorb` to merge side-branch costs.
    """

    def __init__(self, name: str, input_shape: tuple):
        self.name = name
        self.input_shape = tuple(input_shape)
        self.shape = tuple(input_shape)
        self.cost = LayerCost(nonlinear={})
        #: Full (layer, in_shape, out_shape) record of every applied
        #: layer -- what the preprocessing planner walks to turn a model
        #: into exact per-layer correlation demand.
        self.trace: list = []

    @property
    def layer_log(self) -> list:
        """(name, out_shape) view of the trace (legacy accessor)."""
        return [(layer.name, out) for layer, _, out in self.trace]

    def add(self, layer: Layer) -> "Graph":
        in_shape = self.shape
        self.shape, cost = layer.apply(self.shape)
        self.cost.merge(cost)
        self.trace.append((layer, in_shape, self.shape))
        return self

    def absorb(self, other: "Graph") -> "Graph":
        """Merge a side branch's accumulated cost (shapes untouched)."""
        self.cost.merge(other.cost)
        self.trace.extend(other.trace)
        return self

    def set_shape(self, shape: tuple) -> "Graph":
        """Override the tracked shape (after concat/reshape)."""
        self.shape = tuple(shape)
        return self

    # -- summary accessors ---------------------------------------------------
    @property
    def total_macs(self) -> int:
        return self.cost.macs

    @property
    def total_params(self) -> int:
        return self.cost.params

    def nonlinear_counts(self) -> dict:
        return dict(self.cost.nonlinear)

    def nonlinear_total(self) -> int:
        return sum(self.cost.nonlinear.values())
