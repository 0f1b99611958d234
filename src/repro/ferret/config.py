"""Configuration for the PCG-style OT extension protocol."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.prg import make_tree_prg
from repro.errors import ParameterError
from repro.lpn.params import LpnParams, TABLE4_BY_LABEL, scaled_params
from repro.spcot.mpcot import mpcot_cots_needed


@dataclass
class FerretConfig:
    """Everything both parties must agree on before running OTE.

    Attributes:
        params: the LPN parameter set (Table 4 row or a scaled set).
        arity: GGM expansion arity (2 = Ferret baseline, 4 = Ironman).
        prg_kind: "aes" (CPU baseline) or "chacha8" (Ironman).
        matrix_seed: public seed expanding the fixed LPN matrix.
    """

    params: LpnParams
    arity: int = 2
    prg_kind: str = "aes"
    matrix_seed: int = 0xFE44E7

    def __post_init__(self):
        if self.arity < 2 or self.arity & (self.arity - 1):
            raise ParameterError("arity must be a power of two >= 2")

    @classmethod
    def paper(cls, label: str = "2^20", arity: int = 2, prg_kind: str = "aes"):
        """A Table 4 configuration by label ('2^20' .. '2^24')."""
        return cls(params=TABLE4_BY_LABEL[label], arity=arity, prg_kind=prg_kind)

    @classmethod
    def small(cls, scale: int = 512, arity: int = 4, prg_kind: str = "chacha8"):
        """A scaled-down functional configuration for tests/examples."""
        return cls(params=scaled_params(scale), arity=arity, prg_kind=prg_kind)

    def make_prg(self):
        """Instantiate this configuration's tree PRG (per party)."""
        return make_tree_prg(self.prg_kind, self.arity)

    @property
    def spcot_cots(self) -> int:
        """Base COTs one extend() consumes for SPCOT's per-level OTs."""
        return mpcot_cots_needed(self.params.n, self.params.t, self.arity)

    @property
    def base_cots_needed(self) -> int:
        """Base COTs per iteration: LPN's k plus SPCOT's allotment."""
        return self.params.k + self.spcot_cots

    @property
    def net_output(self) -> int:
        """Usable COTs per extend() after reserving the next iteration."""
        return self.params.n - self.base_cots_needed
