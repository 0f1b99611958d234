"""The PPML evaluation model zoo (Section 6.5, Table 5, Figure 1(a)).

CNNs at 224x224x3: MobileNetV2, SqueezeNet 1.0, ResNet-18/34/50,
DenseNet-121.  Transformers at sequence length 128: ViT-Base/16,
BERT-Base/Large, GPT-2 small/medium/large.

Every builder constructs the real architecture through the shape-
inference IR, so MAC/parameter/nonlinearity counts come from the
actual layer dimensions; the test suite pins parameter totals against
the published sizes (e.g. ResNet-50 25.6M, BERT-Base 110M).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.ppml.layers import (
    Activation,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Graph,
    GlobalAvgPool,
    Layer,
    LayerCost,
    LayerNorm,
    Linear,
    MaxPool2d,
    Softmax,
)


@dataclass
class Op(Layer):
    """A raw cost node (attention score matmuls, concats, etc.)."""

    macs: int = 0
    params: int = 0
    nonlinear: dict = None
    out_shape: tuple = None
    name: str = "op"

    def apply(self, shape: tuple) -> tuple:
        cost = LayerCost(
            macs=self.macs, params=self.params, nonlinear=dict(self.nonlinear or {})
        )
        return (self.out_shape or shape), cost


def _conv_bn_act(g: Graph, out_ch, kernel, stride=1, padding=0, act="relu", groups=1):
    g.add(Conv2d(out_ch, kernel, stride, padding, groups=groups, bias=False))
    g.add(BatchNorm2d())
    if act:
        g.add(Activation(act))


# ---------------------------------------------------------------------------
# ResNet family
# ---------------------------------------------------------------------------

def _basic_block(g: Graph, out_ch: int, stride: int):
    in_shape = g.shape
    _conv_bn_act(g, out_ch, 3, stride, 1)
    _conv_bn_act(g, out_ch, 3, 1, 1, act=None)
    if stride != 1 or in_shape[0] != out_ch:
        skip = Graph("skip", in_shape)
        _conv_bn_act(skip, out_ch, 1, stride, 0, act=None)
        g.absorb(skip)
    g.add(Activation("relu"))


def _bottleneck(g: Graph, mid_ch: int, stride: int):
    in_shape = g.shape
    out_ch = mid_ch * 4
    _conv_bn_act(g, mid_ch, 1)
    _conv_bn_act(g, mid_ch, 3, stride, 1)
    _conv_bn_act(g, out_ch, 1, act=None)
    if stride != 1 or in_shape[0] != out_ch:
        skip = Graph("skip", in_shape)
        _conv_bn_act(skip, out_ch, 1, stride, 0, act=None)
        g.absorb(skip)
    g.add(Activation("relu"))


def _resnet(name: str, blocks, bottleneck: bool) -> Graph:
    g = Graph(name, (3, 224, 224))
    _conv_bn_act(g, 64, 7, 2, 3)
    g.add(MaxPool2d(3, 2, 1))
    channels = (64, 128, 256, 512)
    for stage, (n_blocks, ch) in enumerate(zip(blocks, channels)):
        for b in range(n_blocks):
            stride = 2 if (stage > 0 and b == 0) else 1
            if bottleneck:
                _bottleneck(g, ch, stride)
            else:
                _basic_block(g, ch, stride)
    g.add(GlobalAvgPool())
    g.add(Flatten())
    g.add(Linear(1000))
    return g


def resnet18() -> Graph:
    return _resnet("ResNet18", (2, 2, 2, 2), bottleneck=False)


def resnet34() -> Graph:
    return _resnet("ResNet34", (3, 4, 6, 3), bottleneck=False)


def resnet50() -> Graph:
    return _resnet("ResNet50", (3, 4, 6, 3), bottleneck=True)


# ---------------------------------------------------------------------------
# MobileNetV2
# ---------------------------------------------------------------------------

_MBV2_SETTINGS = (
    # expansion t, out channels c, repeats n, first stride s
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def _inverted_residual(g: Graph, expand: int, out_ch: int, stride: int):
    in_ch = g.shape[0]
    hidden = in_ch * expand
    if expand != 1:
        _conv_bn_act(g, hidden, 1, act="relu6")
    _conv_bn_act(g, hidden, 3, stride, 1, act="relu6", groups=hidden)
    _conv_bn_act(g, out_ch, 1, act=None)


def mobilenet_v2() -> Graph:
    g = Graph("MobileNetV2", (3, 224, 224))
    _conv_bn_act(g, 32, 3, 2, 1, act="relu6")
    for t, c, n, s in _MBV2_SETTINGS:
        for i in range(n):
            _inverted_residual(g, t, c, s if i == 0 else 1)
    _conv_bn_act(g, 1280, 1, act="relu6")
    g.add(GlobalAvgPool())
    g.add(Flatten())
    g.add(Linear(1000))
    return g


# ---------------------------------------------------------------------------
# SqueezeNet 1.0
# ---------------------------------------------------------------------------

def _fire(g: Graph, squeeze: int, e1: int, e3: int):
    c, h, w = g.shape
    g.add(Conv2d(squeeze, 1))
    g.add(Activation("relu"))
    sq_shape = g.shape
    left = Graph("fire1x1", sq_shape)
    left.add(Conv2d(e1, 1)).add(Activation("relu"))
    right = Graph("fire3x3", sq_shape)
    right.add(Conv2d(e3, 3, 1, 1)).add(Activation("relu"))
    g.absorb(left).absorb(right)
    g.set_shape((e1 + e3, sq_shape[1], sq_shape[2]))


def squeezenet() -> Graph:
    g = Graph("SqueezeNet", (3, 224, 224))
    g.add(Conv2d(96, 7, 2)).add(Activation("relu"))
    g.add(MaxPool2d(3, 2))
    _fire(g, 16, 64, 64)
    _fire(g, 16, 64, 64)
    _fire(g, 32, 128, 128)
    g.add(MaxPool2d(3, 2))
    _fire(g, 32, 128, 128)
    _fire(g, 48, 192, 192)
    _fire(g, 48, 192, 192)
    _fire(g, 64, 256, 256)
    g.add(MaxPool2d(3, 2))
    _fire(g, 64, 256, 256)
    g.add(Conv2d(1000, 1)).add(Activation("relu"))
    g.add(GlobalAvgPool())
    g.add(Flatten())
    return g


# ---------------------------------------------------------------------------
# DenseNet-121
# ---------------------------------------------------------------------------

def _dense_layer(g: Graph, growth: int):
    in_shape = g.shape
    branch = Graph("dense", in_shape)
    branch.add(BatchNorm2d()).add(Activation("relu"))
    branch.add(Conv2d(4 * growth, 1, bias=False))
    branch.add(BatchNorm2d()).add(Activation("relu"))
    branch.add(Conv2d(growth, 3, 1, 1, bias=False))
    g.absorb(branch)
    g.set_shape((in_shape[0] + growth, in_shape[1], in_shape[2]))


def densenet121() -> Graph:
    g = Graph("DenseNet121", (3, 224, 224))
    _conv_bn_act(g, 64, 7, 2, 3)
    g.add(MaxPool2d(3, 2, 1))
    growth = 32
    for i, n_layers in enumerate((6, 12, 24, 16)):
        for _ in range(n_layers):
            _dense_layer(g, growth)
        if i < 3:
            c = g.shape[0]
            g.add(BatchNorm2d()).add(Activation("relu"))
            g.add(Conv2d(c // 2, 1, bias=False))
            g.add(AvgPool2d(2))
    g.add(BatchNorm2d()).add(Activation("relu"))
    g.add(GlobalAvgPool())
    g.add(Flatten())
    g.add(Linear(1000))
    return g


# ---------------------------------------------------------------------------
# Transformers
# ---------------------------------------------------------------------------

def _transformer_block(g: Graph, d: int, heads: int, seq: int, act: str = "gelu"):
    """One encoder block: LN -> MHA -> LN -> MLP (pre-norm omitted from
    cost perspective -- element counts are identical either way)."""
    g.add(LayerNorm())
    g.add(Op(name="qkv", macs=seq * d * 3 * d, params=3 * d * d + 3 * d))
    # Attention scores QK^T and context AV: seq^2 * d MACs each.
    g.add(Op(name="scores", macs=seq * seq * d))
    g.add(Op(name="softmax", nonlinear={"softmax": heads * seq * seq}))
    g.add(Op(name="context", macs=seq * seq * d))
    g.add(Op(name="proj", macs=seq * d * d, params=d * d + d))
    g.add(LayerNorm())
    g.add(Linear(4 * d))
    g.add(Activation(act))
    g.add(Linear(d))


def transformer(
    name: str,
    n_layers: int,
    d: int,
    heads: int,
    seq: int = 128,
    vocab: int = 0,
    max_pos: int = 512,
    extra_embed_params: int = 0,
) -> Graph:
    """A generic encoder/decoder stack with embeddings."""
    if d % heads:
        raise ParameterError("hidden size must divide the head count")
    g = Graph(name, (seq, d))
    embed_params = vocab * d + max_pos * d + extra_embed_params
    g.add(Op(name="embed", params=embed_params))
    g.add(LayerNorm())
    for _ in range(n_layers):
        _transformer_block(g, d, heads, seq)
    g.add(LayerNorm())
    return g


def bert_base(seq: int = 128) -> Graph:
    # token-type embeddings + pooler dense layer.
    return transformer(
        "BERT-Base", 12, 768, 12, seq, vocab=30522,
        extra_embed_params=2 * 768 + 768 * 768 + 768,
    )


def bert_large(seq: int = 128) -> Graph:
    return transformer(
        "BERT-Large", 24, 1024, 16, seq, vocab=30522,
        extra_embed_params=2 * 1024 + 1024 * 1024 + 1024,
    )


def gpt2_small(seq: int = 128) -> Graph:
    return transformer("GPT2-Small", 12, 768, 12, seq, vocab=50257, max_pos=1024)


def gpt2_medium(seq: int = 128) -> Graph:
    return transformer("GPT2-Medium", 24, 1024, 16, seq, vocab=50257, max_pos=1024)


def gpt2_large(seq: int = 128) -> Graph:
    return transformer("GPT2-Large", 36, 1280, 20, seq, vocab=50257, max_pos=1024)


def vit_base(seq_patches: int = 197) -> Graph:
    """ViT-Base/16 at 224x224: 196 patches + CLS token."""
    g = Graph("ViT-Base", (seq_patches, 768))
    # Patch embedding: 16x16x3 -> 768 conv, plus position embeddings.
    g.add(Op(name="patch_embed", macs=196 * 768 * (16 * 16 * 3),
             params=768 * 16 * 16 * 3 + 768 + seq_patches * 768))
    for _ in range(12):
        _transformer_block(g, 768, 12, seq_patches)
    g.add(LayerNorm())
    g.add(Op(name="head", macs=768 * 1000, params=768 * 1000 + 1000))
    return g


#: Registry used by benchmarks and examples.
MODEL_BUILDERS = {
    "MobileNetV2": mobilenet_v2,
    "SqueezeNet": squeezenet,
    "ResNet18": resnet18,
    "ResNet34": resnet34,
    "ResNet50": resnet50,
    "DenseNet121": densenet121,
    "ViT": vit_base,
    "BERT-Base": bert_base,
    "BERT-Large": bert_large,
    "GPT2-Small": gpt2_small,
    "GPT2-Medium": gpt2_medium,
    "GPT2-Large": gpt2_large,
}

#: Published parameter counts (millions) the tests validate against.
REFERENCE_PARAMS_M = {
    "MobileNetV2": 3.50,
    "SqueezeNet": 1.25,
    "ResNet18": 11.69,
    "ResNet34": 21.80,
    "ResNet50": 25.56,
    "DenseNet121": 7.98,
    "ViT": 86.6,
    "BERT-Base": 110.0,
    "BERT-Large": 340.0,
    "GPT2-Small": 124.0,
    "GPT2-Medium": 355.0,
    "GPT2-Large": 774.0,
}


def build(name: str) -> Graph:
    """Build a registry model by name."""
    if name not in MODEL_BUILDERS:
        raise ParameterError(f"unknown model {name!r}; have {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[name]()
