"""Cross-layer integration tests: the full pipeline of the paper.

Base OTs -> Ferret OT extension -> online nonlinear protocols, i.e.
correlations produced by the *extension* protocol (not fresh base OTs)
directly power secure comparisons and maxima -- exactly the
preprocessing/online split of Section 2.2.
"""

import numpy as np
import pytest

from repro.ferret.config import FerretConfig
from repro.ferret.protocol import ferret_pair
from repro.mpc.compare import cots_needed, triples_needed
from repro.mpc.maxpool import max_pair
from repro.mpc.sharing import from_signed, reconstruct_arith, share_arith, to_signed
from repro.mpc.triples import generate_bit_triples
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, verify_cot

BITS = 12
N = 8


@pytest.fixture(scope="module")
def extended_pools():
    """Two OTE sessions with swapped roles: pools in both directions.

    This is the role-switching workload of Section 5.2 in protocol
    form: the same party must consume correlations as sender in one
    direction and receiver in the other.
    """
    config = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
    s_fwd, r_fwd, _, _ = ferret_pair(config, rounds=1, seed=21)
    s_rev, r_rev, _, _ = ferret_pair(config, rounds=1, seed=22)
    assert verify_cot(s_fwd[0], r_fwd[0]) and verify_cot(s_rev[0], r_rev[0])
    return s_fwd[0], r_fwd[0], s_rev[0], r_rev[0]


def _pools(batch_s, batch_r):
    return CotPool(sender=batch_s), CotPool(receiver=batch_r)


class TestExtendedCorrelationsPowerOnlinePhase:
    def test_secure_max_from_extension_outputs(self, extended_pools):
        s_fwd, r_fwd, s_rev, r_rev = extended_pools
        rng = np.random.default_rng(5)
        a_plain = rng.integers(-(1 << 9), 1 << 9, N)
        b_plain = rng.integers(-(1 << 9), 1 << 9, N)
        a0, a1 = share_arith(from_signed(a_plain, BITS), rng, bits=BITS)
        b0, b1 = share_arith(from_signed(b_plain, BITS), rng, bits=BITS)

        n_cmp = cots_needed(N, BITS - 1)
        n_tri = triples_needed(N, BITS - 1)
        # Carve every pool needed by the online phase out of the two
        # Ferret output batches -- no fresh base OTs.
        p0_fwd, p1_fwd = _pools(s_fwd, r_fwd)
        p1_rev, p0_rev = _pools(s_rev, r_rev)
        cmp0 = CotPool(sender=p0_fwd.take_sender(n_cmp))
        cmp1 = CotPool(receiver=p1_fwd.take_receiver(n_cmp))
        mux0_s = CotPool(sender=p0_fwd.take_sender(N))
        mux1_r = CotPool(receiver=p1_fwd.take_receiver(N))
        mux1_s = CotPool(sender=p1_rev.take_sender(N))
        mux0_r = CotPool(receiver=p0_rev.take_receiver(N))
        tri0_s = CotPool(sender=p0_fwd.take_sender(n_tri))
        tri1_r = CotPool(receiver=p1_fwd.take_receiver(n_tri))
        tri1_s = CotPool(sender=p1_rev.take_sender(n_tri))
        tri0_r = CotPool(receiver=p0_rev.take_receiver(n_tri))

        rng0, rng1 = np.random.default_rng(6), np.random.default_rng(7)
        t0 = generate_bit_triples(n_tri, tri0_s, tri0_r, party=0)
        t1 = generate_bit_triples(n_tri, tri1_s, tri1_r, party=1)
        m0, m1, _, _ = run_pair(
            lambda ch: max_pair(ch, a0, b0, cmp0, mux0_s, mux0_r, t0, rng0, party=0),
            lambda ch: max_pair(ch, a1, b1, cmp1, mux1_s, mux1_r, t1, rng1, party=1),
        )
        result = to_signed(reconstruct_arith(m0, m1), BITS)
        assert np.array_equal(result, np.maximum(a_plain, b_plain))

    def test_extension_outputs_sufficient_for_workload(self, extended_pools):
        """One small OTE round funds the whole online workload above."""
        s_fwd, _, _, _ = extended_pools
        demand = cots_needed(N, BITS - 1) + N + triples_needed(N, BITS - 1)
        assert len(s_fwd) >= demand
