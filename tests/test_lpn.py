"""LPN parameter, security, matrix, encode and sorting tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encode_bits_reference, encode_blocks_reference
from strategies import KernelStrategies

from repro.crypto import blocks
from repro.errors import ParameterError
from repro.lpn import encode as lpn_encode
from repro.lpn.encode import encode_bits, encode_blocks, encode_streamed
from repro.lpn.matrix import LpnMatrix, generate_matrix
from repro.lpn.params import LPN_LOCALITY, TABLE4, TABLE4_BY_LABEL, scaled_params
from repro.lpn.security import estimate_security, gauss_attack_bits, meets_128_bits
from repro.lpn.sorting import baseline_layout, column_first_use_permutation, sort_indices


class TestParams:
    def test_table4_has_five_sets(self):
        assert len(TABLE4) == 5
        assert set(TABLE4_BY_LABEL) == {"2^20", "2^21", "2^22", "2^23", "2^24"}

    @pytest.mark.parametrize("params", TABLE4, ids=lambda p: p.label)
    def test_usable_output_matches_label(self, params):
        """Table 4's '#OTs for output' column: n - k ~= 2^label."""
        target = float(2 ** int(params.label[2:]))
        assert params.usable_output == pytest.approx(target, rel=0.01)

    @pytest.mark.parametrize("params", TABLE4, ids=lambda p: p.label)
    def test_trees_cover_noise_blocks(self, params):
        # Table 4's own (t, ell) pairs cover 94.6-100% of n (the 2^23 set
        # undershoots most); regular blocks absorb the remainder.
        assert params.t * params.ell >= params.n * 0.9

    def test_executions_for(self):
        p = TABLE4_BY_LABEL["2^20"]
        assert p.executions_for(p.usable_output) == 1
        assert p.executions_for(p.usable_output + 1) == 2
        assert p.executions_for(1 << 25) == 32

    def test_scaled_params_keep_structure(self):
        p = scaled_params(64)
        assert 0 < p.k < p.n and p.t >= 2

    def test_invalid_params_rejected(self):
        from repro.lpn.params import LpnParams

        with pytest.raises(ParameterError):
            LpnParams("bad", 100, 16, 200, 4, 0.0)  # k > n


class TestSecurity:
    @pytest.mark.parametrize("params", TABLE4, ids=lambda p: p.label)
    def test_all_sets_meet_128_bits(self, params):
        assert meets_128_bits(params)

    @pytest.mark.parametrize("params", TABLE4, ids=lambda p: p.label)
    def test_estimate_tracks_table4_column(self, params):
        """Our simplified estimator lands within 12 bits of the paper's
        LWYY24-based numbers (residuals recorded in EXPERIMENTS.md)."""
        est = estimate_security(params).bits
        assert abs(est - params.paper_security_bits) < 12

    def test_gauss_cost_monotone_in_noise(self):
        p = TABLE4_BY_LABEL["2^20"]
        assert gauss_attack_bits(p.n, p.k, p.t + 100) > gauss_attack_bits(p.n, p.k, p.t)

    def test_gauss_cost_monotone_in_dimension(self):
        p = TABLE4_BY_LABEL["2^20"]
        assert gauss_attack_bits(p.n, p.k + 50000, p.t) > gauss_attack_bits(p.n, p.k, p.t)


class TestMatrix:
    def test_shape_and_range(self):
        m = generate_matrix(1000, 64, seed=1)
        assert m.indices.shape == (1000, LPN_LOCALITY)
        assert m.indices.min() >= 0 and m.indices.max() < 64

    def test_deterministic_from_seed(self):
        a = generate_matrix(100, 64, seed=7)
        b = generate_matrix(100, 64, seed=7)
        assert np.array_equal(a.indices, b.indices)

    def test_different_seeds_differ(self):
        a = generate_matrix(100, 64, seed=7)
        b = generate_matrix(100, 64, seed=8)
        assert not np.array_equal(a.indices, b.indices)

    def test_storage_bytes(self):
        m = generate_matrix(1000, 64, seed=1)
        assert m.storage_bytes == 1000 * LPN_LOCALITY * 4

    def test_permuted_columns_relabels(self):
        m = generate_matrix(50, 16, seed=3)
        perm = np.arange(16, dtype=np.int32)[::-1].copy()
        p = m.permuted_columns(perm)
        assert np.array_equal(p.indices, 15 - m.indices)

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ParameterError):
            LpnMatrix(np.array([[0, 99]], dtype=np.int32), k=10)
        with pytest.raises(ParameterError):
            LpnMatrix(np.array([[0, -1]], dtype=np.int64), k=10)

    def test_indices_are_read_only(self):
        """The kernel gathers unchecked, so the constructor's range check
        has to hold for the life of the matrix; a caller's own array is
        left writable."""
        mine = np.array([[0, 3], [2, 1]], dtype=np.int32)
        m = LpnMatrix(mine, k=4)
        with pytest.raises(ValueError):
            m.indices[0, 0] = 99
        assert mine.flags.writeable
        assert not generate_matrix(10, 4, seed=1).indices.flags.writeable
        assert not m.permuted_columns(np.arange(4)[::-1]).indices.flags.writeable


#: A chunk small enough for Hypothesis-sized encodes to cross it.
SMALL_CHUNK = 8
CHUNK_EDGES = (0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 3)


class TestEncode:
    def test_block_kernel_matches_naive(self, rng):
        m = generate_matrix(40, 16, seed=2)
        vec = blocks.random_blocks(16, rng)
        addend = blocks.random_blocks(40, rng)
        out = encode_blocks(m, vec, addend)
        for j in (0, 17, 39):
            acc = addend[j].copy()
            for idx in m.indices[j]:
                acc ^= vec[idx]
            assert np.array_equal(out[j], acc)

    def test_bit_kernel_matches_naive(self, rng):
        m = generate_matrix(40, 16, seed=2)
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        add = rng.integers(0, 2, 40).astype(np.uint8)
        out = encode_bits(m, bits, add)
        for j in (0, 20, 39):
            acc = int(add[j])
            for idx in m.indices[j]:
                acc ^= int(bits[idx])
            assert out[j] == acc

    def test_cot_invariant_survives_encode(self, rng):
        """The heart of LPN step: z = x*Delta XOR y after encoding."""
        k, n = 32, 100
        m = generate_matrix(n, k, seed=5)
        delta = blocks.random_blocks(1, rng)
        # pre-generated COTs: r = e*Delta xor s
        e = rng.integers(0, 2, k).astype(np.uint8)
        s = blocks.random_blocks(k, rng)
        r = blocks.xor(s, blocks.mul_bit(delta, e))
        # SPCOT outputs: w = u*Delta xor v
        u = np.zeros(n, dtype=np.uint8)
        u[[3, 50]] = 1
        v = blocks.random_blocks(n, rng)
        w = blocks.xor(v, blocks.mul_bit(delta, u))
        z = encode_blocks(m, r, w)
        x = encode_bits(m, e, u)
        y = encode_blocks(m, s, v)
        assert np.all(blocks.equal(z, blocks.xor(y, blocks.mul_bit(delta, x))))

    def test_dimension_mismatch_rejected(self, rng):
        m = generate_matrix(10, 8, seed=1)
        with pytest.raises(ParameterError):
            encode_blocks(m, blocks.random_blocks(7, rng), blocks.random_blocks(10, rng))
        with pytest.raises(ParameterError):
            encode_blocks(m, blocks.random_blocks(8, rng), blocks.random_blocks(9, rng))

    @given(case=KernelStrategies.lpn_encode_cases(sizes=CHUNK_EDGES))
    @settings(max_examples=120, deadline=None)
    def test_property_kernels_match_reference_across_chunks(self, case):
        """Both kernels against the gather-then-reduce references, on
        every side of a chunk boundary (no other tier-1 encode has more
        rows than one chunk), int32 / int64 indices, d = 1 and 10, and
        non-contiguous inputs, which must come back untouched."""
        kept = [a.copy() for a in case[1:]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lpn_encode, "CHUNK_ROWS", SMALL_CHUNK)
            got_blocks = encode_blocks(case.matrix, case.vec, case.addend)
            got_bits = encode_bits(case.matrix, case.bits, case.addend_bits)
        assert np.array_equal(
            got_blocks, encode_blocks_reference(case.matrix, case.vec, case.addend)
        )
        assert np.array_equal(
            got_bits, encode_bits_reference(case.matrix, case.bits, case.addend_bits)
        )
        assert got_blocks.dtype == blocks.BLOCK_DTYPE and got_bits.dtype == np.uint8
        for before, after in zip(kept, case[1:]):
            assert np.array_equal(before, after)
        assert not np.shares_memory(got_blocks, case.addend)
        assert not np.shares_memory(got_bits, case.addend_bits)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_encode_is_linear(self, seed):
        rng = np.random.default_rng(seed)
        m = generate_matrix(30, 12, seed=9)
        v1 = blocks.random_blocks(12, rng)
        v2 = blocks.random_blocks(12, rng)
        zero = blocks.zeros(30)
        lhs = encode_blocks(m, blocks.xor(v1, v2), zero)
        rhs = blocks.xor(encode_blocks(m, v1, zero), encode_blocks(m, v2, zero))
        assert np.all(blocks.equal(lhs, rhs))


class TestSorting:
    def test_sorted_stream_preserves_results(self, rng):
        m = generate_matrix(64, 24, seed=4)
        vec = blocks.random_blocks(24, rng)
        addend = blocks.random_blocks(64, rng)
        expect = encode_blocks(m, vec, addend)
        layout = sort_indices(m, window_rows=8)
        out = encode_streamed(layout.cols, layout.rows, layout.permute_vector(vec), addend)
        assert np.all(blocks.equal(out, expect))

    def test_baseline_layout_is_row_major(self):
        m = generate_matrix(5, 8, seed=1)
        layout = baseline_layout(m)
        assert np.array_equal(layout.cols, m.indices.reshape(-1))
        assert np.array_equal(layout.rows, np.repeat(np.arange(5), LPN_LOCALITY))

    def test_access_multiset_preserved(self):
        m = generate_matrix(100, 32, seed=6)
        layout = sort_indices(m, window_rows=16, column_swap=False)
        assert np.array_equal(np.sort(layout.cols), np.sort(m.indices.reshape(-1)))

    def test_windows_are_column_sorted(self):
        m = generate_matrix(64, 32, seed=6)
        layout = sort_indices(m, window_rows=16, column_swap=False)
        window = 16 * LPN_LOCALITY
        for start in range(0, layout.cols.shape[0], window):
            chunk = layout.cols[start : start + window]
            assert np.all(np.diff(chunk) >= 0)

    def test_first_use_permutation_is_bijective(self):
        m = generate_matrix(50, 40, seed=2)
        perm = column_first_use_permutation(m)
        assert sorted(perm.tolist()) == list(range(40))

    def test_first_use_orders_first_appearances(self):
        indices = np.array([[5, 5, 2, 2, 2, 7, 7, 7, 7, 7]], dtype=np.int32)
        m = LpnMatrix(indices, k=8)
        perm = column_first_use_permutation(m)
        assert perm[5] == 0 and perm[2] == 1 and perm[7] == 2

    def test_invalid_window_rejected(self):
        m = generate_matrix(10, 8, seed=1)
        with pytest.raises(ParameterError):
            sort_indices(m, window_rows=0)

    @given(seed=st.integers(0, 1000), window=st.sampled_from([1, 4, 32]))
    @settings(max_examples=15, deadline=None)
    def test_property_sorting_never_changes_output(self, seed, window):
        rng = np.random.default_rng(seed)
        m = generate_matrix(40, 16, seed=seed)
        vec = blocks.random_blocks(16, rng)
        addend = blocks.random_blocks(40, rng)
        expect = encode_blocks(m, vec, addend)
        layout = sort_indices(m, window_rows=window)
        got = encode_streamed(layout.cols, layout.rows, layout.permute_vector(vec), addend)
        assert np.all(blocks.equal(got, expect))
