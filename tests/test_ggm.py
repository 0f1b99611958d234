"""GGM tree expansion + punctured reconstruction tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import PuncturedReconstructor, expand_full, reconstruct_punctured

from repro.crypto import blocks
from repro.crypto.prg import AesTreePrg, ChaChaTreePrg
from repro.errors import ParameterError
from repro.spcot.ggm import alpha_digits, level_sums


def sums_for_receiver(levels, arity, digits):
    """What the (m-1)-of-m OTs would deliver: all sums except digit_i."""
    out = []
    for lvl, digit in enumerate(digits, start=1):
        sums = level_sums(levels[lvl], arity)
        out.append({j: sums[j : j + 1] for j in range(arity) if j != digit})
    return out


class TestExpansion:
    @pytest.mark.parametrize("arity,depth", [(2, 5), (4, 3), (8, 2)])
    def test_level_shapes(self, arity, depth, rng):
        prg = ChaChaTreePrg(arity)
        levels = expand_full(prg, blocks.random_blocks(1, rng), depth)
        assert len(levels) == depth + 1
        for i, lvl in enumerate(levels):
            assert lvl.shape == (arity**i, 2)

    def test_rejects_zero_depth(self, rng):
        with pytest.raises(ParameterError):
            expand_full(ChaChaTreePrg(2), blocks.random_blocks(1, rng), 0)

    def test_same_seed_same_tree(self, rng):
        seed = blocks.random_blocks(1, rng)
        a = expand_full(ChaChaTreePrg(4), seed, 3)
        b = expand_full(ChaChaTreePrg(4), seed, 3)
        for la, lb in zip(a, b):
            assert np.array_equal(la, lb)

    def test_level_sums_definition(self, rng):
        nodes = blocks.random_blocks(12, rng)
        sums = level_sums(nodes, 4)
        for j in range(4):
            assert np.array_equal(sums[j], np.bitwise_xor.reduce(nodes[j::4], axis=0))

    def test_level_sums_rejects_ragged(self, rng):
        with pytest.raises(ParameterError):
            level_sums(blocks.random_blocks(10, rng), 4)


class TestAlphaDigits:
    def test_big_endian_composition(self):
        digits = alpha_digits(0b10110, 2, 5)
        acc = 0
        for d in digits:
            acc = acc * 2 + d
        assert acc == 0b10110

    @pytest.mark.parametrize("arity,depth", [(2, 6), (4, 4)])
    def test_bijective_over_range(self, arity, depth):
        seen = set()
        for alpha in range(arity**depth):
            seen.add(tuple(alpha_digits(alpha, arity, depth)))
        assert len(seen) == arity**depth

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            alpha_digits(16, 2, 4)


class TestPunctureReconstruction:
    @pytest.mark.parametrize("arity,depth", [(2, 4), (4, 3), (8, 2)])
    def test_all_leaves_except_alpha(self, arity, depth, rng):
        prg = ChaChaTreePrg(arity)
        seed = blocks.random_blocks(1, rng)
        levels = expand_full(prg, seed, depth)
        n_leaves = arity**depth
        alpha = int(rng.integers(0, n_leaves))
        digits = alpha_digits(alpha, arity, depth)
        recon, hole = reconstruct_punctured(
            ChaChaTreePrg(arity), depth, alpha, sums_for_receiver(levels, arity, digits)
        )
        assert hole == alpha
        expect = levels[-1].copy()
        expect[alpha] = 0
        assert np.array_equal(recon, expect)

    def test_aes_prg_variant(self, rng):
        prg = AesTreePrg(2)
        seed = blocks.random_blocks(1, rng)
        levels = expand_full(prg, seed, 4)
        alpha = 9
        digits = alpha_digits(alpha, 2, 4)
        recon, hole = reconstruct_punctured(
            AesTreePrg(2), 4, alpha, sums_for_receiver(levels, 2, digits)
        )
        assert hole == alpha
        expect = levels[-1].copy()
        expect[alpha] = 0
        assert np.array_equal(recon, expect)

    def test_feed_level_validates_slots(self, rng):
        recon = PuncturedReconstructor(ChaChaTreePrg(4), 2, [1, 2])
        with pytest.raises(ParameterError):
            recon.feed_level({0: blocks.zeros(1)})  # missing slots 2, 3

    def test_leaves_before_done_raises(self):
        recon = PuncturedReconstructor(ChaChaTreePrg(4), 2, [0, 0])
        with pytest.raises(ParameterError):
            recon.leaves()

    def test_digit_count_must_match_depth(self):
        with pytest.raises(ParameterError):
            PuncturedReconstructor(ChaChaTreePrg(2), 3, [0, 1])

    @given(alpha=st.integers(0, 63))
    @settings(max_examples=16, deadline=None)
    def test_property_every_alpha_binary(self, alpha):
        rng = np.random.default_rng(alpha)
        prg = ChaChaTreePrg(2)
        levels = expand_full(prg, blocks.random_blocks(1, rng), 6)
        digits = alpha_digits(alpha, 2, 6)
        recon, hole = reconstruct_punctured(
            ChaChaTreePrg(2), 6, alpha, sums_for_receiver(levels, 2, digits)
        )
        assert hole == alpha
        expect = levels[-1].copy()
        expect[alpha] = 0
        assert np.array_equal(recon, expect)

    @given(alpha=st.integers(0, 63))
    @settings(max_examples=16, deadline=None)
    def test_property_every_alpha_quaternary(self, alpha):
        rng = np.random.default_rng(1000 + alpha)
        prg = ChaChaTreePrg(4)
        levels = expand_full(prg, blocks.random_blocks(1, rng), 3)
        digits = alpha_digits(alpha, 4, 3)
        recon, hole = reconstruct_punctured(
            ChaChaTreePrg(4), 3, alpha, sums_for_receiver(levels, 4, digits)
        )
        assert hole == alpha
        expect = levels[-1].copy()
        expect[alpha] = 0
        assert np.array_equal(recon, expect)
