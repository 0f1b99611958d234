"""Unified-architecture MatMul tests (Figure 16)."""

import pytest

from repro.errors import ParameterError
from repro.lpn.params import TABLE4_BY_LABEL
from repro.mpc.matmul import FIG16_DIMS
from repro.nmp.accelerator import IronmanAccelerator
from repro.nmp.config import IRONMAN_1MB
from repro.ppml.inference import IronmanOte
from repro.ppml.matmul import (
    MatmulDims,
    matmul_comm_bytes,
    matmul_cost,
    matmul_cots,
)
from repro.ppml.network import LAN


@pytest.fixture(scope="module")
def provider():
    return IronmanOte(TABLE4_BY_LABEL["2^22"], IronmanAccelerator(IRONMAN_1MB))


class TestCounting:
    def test_cots_cover_both_cross_terms(self):
        d = MatmulDims(4, 8, 16)
        assert matmul_cots(d, bits=8) == (4 * 8 + 8 * 16) * 8

    def test_unified_halves_comm_exactly(self):
        """The paper's measured 2x communication reduction."""
        for dims in FIG16_DIMS:
            without = matmul_comm_bytes(dims, unified=False)
            with_u = matmul_comm_bytes(dims, unified=True)
            assert without / with_u == pytest.approx(2.0)

    def test_dims_validation(self):
        with pytest.raises(ParameterError):
            MatmulDims(0, 8, 8)

    def test_label(self):
        assert MatmulDims(64, 768, 64).label == "(64,768,64)"


class TestLatency:
    def test_latency_reduction_in_paper_regime(self, provider):
        """Paper: ~1.4x latency reduction across the Fig 16 shapes."""
        for dims in FIG16_DIMS:
            base = matmul_cost(dims, provider, LAN, unified=False)
            ours = matmul_cost(dims, provider, LAN, unified=True)
            ratio = base.total_seconds / ours.total_seconds
            assert 1.2 < ratio <= 2.0

    def test_ot_time_is_role_independent(self, provider):
        dims = FIG16_DIMS[0]
        base = matmul_cost(dims, provider, LAN, unified=False)
        ours = matmul_cost(dims, provider, LAN, unified=True)
        assert base.ot_seconds == pytest.approx(ours.ot_seconds)
        assert base.cots == ours.cots

    def test_fig16_dims_match_paper(self):
        labels = [d.label for d in FIG16_DIMS]
        assert labels == ["(64,768,768)", "(64,768,64)", "(64,4096,64)"]
