"""End-to-end private-inference latency estimation (Table 5, Fig 1a, 15).

An inference splits into the paper's four components:

* **HE computation** -- linear layers under homomorphic encryption
  (GPU-accelerated in the paper's setup);
* **OT extension** -- generating the COT correlations the nonlinear
  protocols consume (the part Ironman accelerates);
* **online communication** -- the interactive nonlinear evaluation;
* **other computation** -- everything else (share conversions, local
  plaintext work), backed out of the paper's measured baselines.

OTE itself also talks to the network (sub-linear bytes but one round
per GGM level), which is why WAN gains are smaller (Section 6.5,
observation 3): once compute is accelerated, those rounds dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines.cpu import CpuModel, DEFAULT_CPU
from repro.baselines.gpu import DEFAULT_GPU, GpuModel
from repro.errors import ParameterError
from repro.lpn.params import LpnParams, TABLE4_BY_LABEL
from repro.nmp.accelerator import IronmanAccelerator
from repro.ppml.layers import Graph
from repro.ppml.network import NetworkModel
from repro.ppml.nonlinear import FrameworkProfile
from repro.utils.bitops import log_base


def ote_comm_per_execution(params: LpnParams, arity: int = 2) -> tuple:
    """Closed-form (bytes, rounds) of one OTE execution.

    Per GGM level the sender offers masked sums (2 blocks for binary,
    ``2 log2(m) + m`` blocks for m-ary via the key tree) and the
    receiver returns correction bits; levels are sequential rounds.
    """
    depth2 = max(1, math.ceil(math.log2(params.ell)))
    if arity == 2:
        per_tree = depth2 * 33 + 16
        rounds = depth2 + 2
    else:
        w = log_base(arity, 2)
        depth_m = max(1, math.ceil(depth2 / w))
        per_level = w * 33 + arity * 16
        per_tree = depth_m * per_level + 16
        rounds = depth_m * (w + 1) + 2
    return params.t * per_tree, rounds


class OteProvider:
    """Something that can generate COT correlations at a cost."""

    name = "ote"
    arity = 2

    def __init__(self, params: LpnParams):
        self.params = params

    def seconds_for(self, n_cots: float) -> float:
        raise NotImplementedError

    def comm_for(self, n_cots: float) -> tuple:
        """(bytes, rounds) to generate ``n_cots`` correlations."""
        execs = self.params.executions_for(max(1, int(n_cots)))
        per_bytes, per_rounds = ote_comm_per_execution(self.params, self.arity)
        return execs * per_bytes, execs * per_rounds


class CpuOte(OteProvider):
    """The paper's baseline: Ferret on the full-thread CPU."""

    name = "CPU"

    def __init__(self, params: LpnParams, model: CpuModel = DEFAULT_CPU):
        super().__init__(params)
        self.model = model

    def seconds_for(self, n_cots: float) -> float:
        return self.model.latency_for(
            self.params, max(1, int(n_cots)), include_init=False
        )


class GpuOte(OteProvider):
    """The A6000 implementation."""

    name = "GPU"

    def __init__(self, params: LpnParams, model: GpuModel = DEFAULT_GPU):
        super().__init__(params)
        self.model = model

    def seconds_for(self, n_cots: float) -> float:
        return self.model.latency_for(self.params, max(1, int(n_cots)))


class IronmanOte(OteProvider):
    """Ironman: 4-ary ChaCha8 trees on the NMP fabric."""

    name = "Ironman"
    arity = 4

    def __init__(self, params: LpnParams, accelerator: IronmanAccelerator):
        super().__init__(params)
        self.accelerator = accelerator

    def seconds_for(self, n_cots: float) -> float:
        return self.accelerator.latency_for(self.params, max(1, int(n_cots)))


#: Parameter set used for application-level OT provisioning.
DEFAULT_APP_PARAMS = TABLE4_BY_LABEL["2^22"]


@dataclass(frozen=True)
class InferenceBreakdown:
    """Latency decomposition of one private inference."""

    model: str
    framework: str
    provider: str
    he_seconds: float
    ot_compute_seconds: float
    ot_comm_seconds: float
    online_comm_seconds: float
    other_seconds: float
    n_cots: float

    @property
    def ot_seconds(self) -> float:
        return self.ot_compute_seconds + self.ot_comm_seconds

    @property
    def total_seconds(self) -> float:
        return (
            self.he_seconds
            + self.ot_seconds
            + self.online_comm_seconds
            + self.other_seconds
        )

    def share(self, component: str) -> float:
        """Fraction of total latency (component in he/ot/online/other)."""
        mapping = {
            "he": self.he_seconds,
            "ot": self.ot_seconds,
            "online": self.online_comm_seconds,
            "other": self.other_seconds,
        }
        if component not in mapping:
            raise ParameterError(f"unknown component {component!r}")
        total = self.total_seconds
        return mapping[component] / total if total else 0.0


def nonlinear_layer_count(model: Graph) -> int:
    """Layers whose evaluation needs online interaction."""
    interactive = {"act", "maxpool", "softmax", "layernorm", "avgpool", "gap"}
    return sum(1 for layer, _, _ in model.trace if layer.name in interactive)


def estimate_inference(
    model: Graph,
    profile: FrameworkProfile,
    provider: OteProvider,
    network: NetworkModel,
    other_seconds: float = 0.0,
) -> InferenceBreakdown:
    """Estimate one private inference end to end."""
    counts = model.nonlinear_counts()
    n_cots = profile.cot_demand(counts, model.total_macs)
    ot_compute = provider.seconds_for(n_cots) if n_cots else 0.0
    ot_bytes, ot_rounds = provider.comm_for(n_cots) if n_cots else (0.0, 0.0)
    # OTE compute overlaps its own payload transfer; rounds serialize.
    ot_comm = max(
        0.0, network.transfer_seconds(ot_bytes) - ot_compute
    ) + network.round_seconds(ot_rounds)
    online = network.interaction_seconds(
        profile.online_bytes(counts),
        nonlinear_layer_count(model) * profile.rounds_per_layer,
    )
    he = model.total_macs / profile.he_macs_per_s
    return InferenceBreakdown(
        model=model.name,
        framework=profile.name,
        provider=provider.name,
        he_seconds=he,
        ot_compute_seconds=ot_compute,
        ot_comm_seconds=ot_comm,
        online_comm_seconds=online,
        other_seconds=other_seconds,
        n_cots=n_cots,
    )
