"""Executable secure MatMul: preprocessing (Gilboa matrix triples) +
Beaver online phase, validated against the analytical cost model."""

import numpy as np
import pytest

from repro.crypto.crhf import DEFAULT_CRHF
from repro.errors import ParameterError, ProtocolError
from repro.mpc.matmul import (
    BYTES_PER_COT,
    FIG16_DIMS,
    MatmulDims,
    generate_matrix_triples,
    matmul_cots,
    matmul_online,
    matmul_online_bytes,
    matmul_preproc_bytes,
)
from repro.mpc.triples import dealer_matrix_triples, ring_mask_u64
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool
from repro.ppml import matmul as ppml_matmul
from repro.ppml.matmul import matmul_comm_bytes

from repro.ot.testing import fake_cots

SMALL_DIMS = (MatmulDims(3, 5, 4), MatmulDims(6, 2, 7))


def run_matmul_pipeline(dims, bits, ot_sender, seed=0):
    """Full two-party pipeline: Gilboa triple generation + online phase.

    Returns (reconstructed Z, expected X@Y, wire-byte and COT metrics).
    """
    mask = ring_mask_u64(bits)
    gen = np.random.default_rng(seed)
    n_cots = int(matmul_cots(dims, bits))
    sender_cots, receiver_cots = fake_cots(n_cots, seed=seed + 1)
    pools = {
        ot_sender: CotPool(sender=sender_cots),
        1 - ot_sender: CotPool(receiver=receiver_cots),
    }
    x = gen.integers(0, 1 << bits, (dims.m, dims.k), dtype=np.uint64)
    y = gen.integers(0, 1 << bits, (dims.k, dims.n), dtype=np.uint64)
    x0 = gen.integers(0, 1 << bits, (dims.m, dims.k), dtype=np.uint64)
    y0 = gen.integers(0, 1 << bits, (dims.k, dims.n), dtype=np.uint64)
    shares = {0: (x0, y0), 1: ((x - x0) & mask, (y - y0) & mask)}

    def party(p):
        def run(ch):
            rng = np.random.default_rng(100 + p)
            triple = generate_matrix_triples(
                ch, dims, bits, pools[p], rng, party=p, ot_sender=ot_sender
            )
            return matmul_online(ch, shares[p][0], shares[p][1], triple, p)

        return run

    z0, z1, st0, st1 = run_pair(party(0), party(1), timeout=600.0)
    metrics = {
        "bytes": st0.bytes_sent + st1.bytes_sent,
        "cots_consumed": pools[0].size - pools[0].remaining,
    }
    return (z0 + z1) & mask, (x @ y) & mask, metrics


class TestPipelineSmall:
    """Both OT-sender role directions, exact cost-model validation."""

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=lambda d: d.label)
    @pytest.mark.parametrize("ot_sender", [0, 1])
    def test_product_correct_both_directions(self, dims, ot_sender):
        got, expect, _ = run_matmul_pipeline(dims, bits=16, ot_sender=ot_sender)
        assert np.array_equal(got, expect)

    def test_cot_consumption_matches_analytical_model(self):
        dims = SMALL_DIMS[0]
        for ot_sender in (0, 1):
            _, _, metrics = run_matmul_pipeline(dims, 16, ot_sender)
            assert metrics["cots_consumed"] == matmul_cots(dims, 16)

    def test_measured_bytes_match_exact_predictors(self):
        """Wire bytes = preprocessing predictor + online predictor, and
        the online phase stays within the analytical per-COT model."""
        dims = SMALL_DIMS[0]
        bits = 16
        _, _, metrics = run_matmul_pipeline(dims, bits, ot_sender=1)
        predicted = matmul_preproc_bytes(dims, bits) + matmul_online_bytes(dims, bits)
        assert metrics["bytes"] == predicted
        assert matmul_online_bytes(dims, bits) <= matmul_comm_bytes(dims, bits)


class TestPadPacking:
    """Gilboa pads are ``bits``-wide lanes of the hash output: on a
    16-bit ring one AES block pads eight payload slots, not two."""

    @pytest.mark.parametrize(
        "dims,aes_blocks",
        # Both parties, both cross terms: 3 x rows x ceil(width / 8).
        [(MatmulDims(4, 24, 24), 41472), (MatmulDims(4, 24, 12), 23040)],
        ids=lambda v: getattr(v, "label", v),
    )
    def test_ledger_shapes_hash_exactly_this_many_blocks(self, monkeypatch, dims, aes_blocks):
        bits = 16
        hashed = []
        inner = DEFAULT_CRHF.hash_tweaked
        monkeypatch.setattr(
            DEFAULT_CRHF, "hash_tweaked",
            lambda x, tweaks: hashed.append(x.shape[0]) or inner(x, tweaks),
        )
        sender_cots, receiver_cots = fake_cots(int(matmul_cots(dims, bits)), seed=5)
        pools = {1: CotPool(sender=sender_cots), 0: CotPool(receiver=receiver_cots)}

        def party(p):
            return lambda ch: generate_matrix_triples(
                ch, dims, bits, pools[p], np.random.default_rng(p), party=p
            )

        t0, t1, st0, st1 = run_pair(party(0), party(1))
        assert sum(hashed) == aes_blocks
        # Pads never go on the wire: the byte model is untouched.
        assert st0.bytes_sent + st1.bytes_sent == matmul_preproc_bytes(dims, bits)
        mask = ring_mask_u64(bits)
        a, b = (t0.a + t1.a) & mask, (t0.b + t1.b) & mask
        assert np.array_equal((t0.c + t1.c) & mask, (a @ b) & mask)


class TestFig16Online:
    """Acceptance: executable MatMul reconstructs correctly at every
    Figure 16 shape; preprocessing uses dealer triples at this scale
    (the OT-based generator is exercised above and via the service)."""

    @pytest.mark.parametrize("dims", FIG16_DIMS, ids=lambda d: d.label)
    @pytest.mark.parametrize("swap_roles", [False, True])
    def test_fig16_shapes_reconstruct(self, dims, swap_roles):
        bits = 32
        mask = ring_mask_u64(bits)
        gen = np.random.default_rng(dims.m + dims.k + dims.n + swap_roles)
        t0, t1 = dealer_matrix_triples(dims.m, dims.k, dims.n, bits, gen)
        x = gen.integers(0, 1 << bits, (dims.m, dims.k), dtype=np.uint64)
        y = gen.integers(0, 1 << bits, (dims.k, dims.n), dtype=np.uint64)
        x0 = gen.integers(0, 1 << bits, (dims.m, dims.k), dtype=np.uint64)
        y0 = gen.integers(0, 1 << bits, (dims.k, dims.n), dtype=np.uint64)
        x1, y1 = (x - x0) & mask, (y - y0) & mask
        if swap_roles:  # the activation holder plays party 1 instead
            t0, t1 = t1, t0
            x0, x1, y0, y1 = x1, x0, y1, y0
        z0, z1, st0, st1 = run_pair(
            lambda ch: matmul_online(ch, x0, y0, t0, 0),
            lambda ch: matmul_online(ch, x1, y1, t1, 1),
            timeout=600.0,
        )
        assert np.array_equal((z0 + z1) & mask, (x @ y) & mask)
        measured = st0.bytes_sent + st1.bytes_sent
        assert measured == matmul_online_bytes(dims, bits)
        # Online bytes sit far inside the analytical COT-model budget:
        # preprocessing moved the OT traffic off the critical path.
        assert measured <= matmul_comm_bytes(dims, unified=True)

    def test_shape_mismatch_rejected(self):
        t0, _ = dealer_matrix_triples(2, 3, 4, 16, np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            matmul_online(None, np.zeros((9, 9)), np.zeros((9, 9)), t0, 0)


class TestSharedConstants:
    """The analytical model and the executable layer share definitions."""

    def test_bytes_per_cot_single_definition(self):
        assert ppml_matmul.BYTES_PER_COT is BYTES_PER_COT

    def test_dims_and_counts_are_reexports(self):
        assert ppml_matmul.MatmulDims is MatmulDims
        assert ppml_matmul.matmul_cots is matmul_cots


class TestGilboaChunking:
    """The correction matrix streams in row blocks; the block size is a
    memory knob only.  Outputs AND wire bytes must be invariant."""

    def run_chunked(self, dims, bits, chunk_rows, seed=3):
        gen = np.random.default_rng(seed)
        n_cots = int(matmul_cots(dims, bits))
        sender_cots, receiver_cots = fake_cots(n_cots, seed=seed + 1)
        pools = {1: CotPool(sender=sender_cots), 0: CotPool(receiver=receiver_cots)}

        def party(p):
            def run(ch):
                rng = np.random.default_rng(100 + p)
                return generate_matrix_triples(
                    ch, dims, bits, pools[p], rng, party=p,
                    ot_sender=1, chunk_rows=chunk_rows,
                )

            return run

        t0, t1, st0, st1 = run_pair(party(0), party(1), timeout=600.0)
        return t0, t1, st0.bytes_sent + st1.bytes_sent

    @pytest.mark.parametrize("dims", SMALL_DIMS, ids=lambda d: d.label)
    def test_chunked_equals_unchunked(self, dims):
        bits = 16
        t = int(matmul_cots(dims, bits))
        # chunk=7 forces many ragged blocks; chunk >= t is one block
        # (the pre-streaming behavior).
        t0_a, t1_a, bytes_a = self.run_chunked(dims, bits, chunk_rows=7)
        t0_b, t1_b, bytes_b = self.run_chunked(dims, bits, chunk_rows=t)
        for chunked, whole in ((t0_a, t0_b), (t1_a, t1_b)):
            assert np.array_equal(chunked.a, whole.a)
            assert np.array_equal(chunked.b, whole.b)
            assert np.array_equal(chunked.c, whole.c)
        assert bytes_a == bytes_b

    def test_byte_model_holds_at_tiny_chunks(self):
        dims = SMALL_DIMS[0]
        bits = 16
        _, _, wire = self.run_chunked(dims, bits, chunk_rows=1)
        assert wire == matmul_preproc_bytes(dims, bits)

    def test_chunk_rows_must_be_positive(self):
        dims = SMALL_DIMS[0]
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="chunk_rows"):
            generate_matrix_triples(
                None, dims, 16, None, rng, party=0, chunk_rows=0
            )
