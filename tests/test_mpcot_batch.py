"""One-shot MPCOT vs the sequential per-tree, per-level reference oracle.

The shipped path must keep the oracle's outputs bit for bit and its COT
consumption.  Two things differ: the channel-round count drops from
O(t * depth) to one per same-depth run, and the PRG core calls drop to
:func:`mpcot_prg_calls` because the shipped trees are pruned to the
leaves each block keeps, while the oracle expands full trees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import blocks
from repro.crypto.prg import AesTreePrg, ChaChaTreePrg, expansion_calls, make_tree_prg
from repro.errors import ParameterError
from repro.lpn.params import TABLE4_BY_LABEL
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch
from repro.spcot.ggm import (
    alpha_digits,
    batched_level_sums,
    expand_forest,
    level_sums,
    pruned_widths,
    reconstruct_forest,
    tree_xor,
)
from repro.spcot.mpcot import (
    block_sizes,
    depth_runs,
    mpcot_buffers,
    mpcot_cots_needed,
    mpcot_plan,
    mpcot_prg_calls,
    mpcot_receive,
    mpcot_send,
    sample_alphas,
    tree_depth_for,
)
from repro.spcot.protocol import cots_needed, spcot_receive_batch, spcot_send_batch

from oracles import (
    expand_full,
    mpcot_receive_sequential,
    mpcot_send_sequential,
    reconstruct_punctured,
)


def make_pools(n_cots, delta, seed=99):
    """Fabricated (not base-OT-derived) COT correlations for speed."""
    gen = np.random.default_rng(seed)
    z = blocks.random_blocks(n_cots, gen)
    x = gen.integers(0, 2, n_cots).astype(np.uint8)
    y = blocks.xor(z, blocks.mul_bit(delta, x))
    return (
        CotPool(sender=CotSenderBatch(delta, z)),
        CotPool(receiver=CotReceiverBatch(x, y)),
    )


def run_both_paths(n, t, arity, prg_cls, delta, rng_seed=123, alpha_seed=5):
    """Run the sequential oracle (key False) and the shipped one-shot
    MPCOT (key True) from identical starting state."""
    alphas = sample_alphas(n, t, np.random.default_rng(alpha_seed))
    paths = {
        False: (mpcot_send_sequential, mpcot_receive_sequential),
        True: (mpcot_send, mpcot_receive),
    }
    results = {}
    for shipped, (send, receive) in paths.items():
        pool_s, pool_r = make_pools(mpcot_cots_needed(n, t, arity), delta)
        prg_s, prg_r = prg_cls(arity), prg_cls(arity)
        rng = np.random.default_rng(rng_seed)
        w, uv, s_stats, r_stats = run_pair(
            lambda ch: send(ch, pool_s, delta, prg_s, n, t, rng),
            lambda ch: receive(ch, pool_r, alphas, prg_r, n, t),
        )
        results[shipped] = {
            "w": w,
            "u": uv[0],
            "v": uv[1],
            "prg_calls": (prg_s.total_calls, prg_r.total_calls),
            "rounds": (s_stats.rounds, r_stats.rounds),
            "pool_left": (pool_s.remaining, pool_r.remaining),
        }
    return results


class TestBatchedGgm:
    """The vectorized multi-tree helpers agree with the per-tree ones."""

    @pytest.mark.parametrize("arity,depth,t", [(2, 4, 3), (4, 3, 5), (8, 2, 2)])
    def test_batched_expand_matches_per_tree(self, arity, depth, t, rng):
        prg_batch, prg_one = ChaChaTreePrg(arity), ChaChaTreePrg(arity)
        seeds = blocks.random_blocks(t, rng)
        sums, leaves = expand_forest(prg_batch, seeds, depth)
        for i in range(t):
            single = expand_full(prg_one, seeds[i : i + 1], depth)
            for lvl in range(1, depth + 1):
                assert np.array_equal(sums[lvl - 1, i], level_sums(single[lvl], arity))
            assert np.array_equal(leaves[i], single[-1])
        # prg_one expanded all t trees one by one: identical call totals.
        assert prg_batch.total_calls == prg_one.total_calls

    @pytest.mark.parametrize("arity,t", [(2, 4), (4, 3)])
    def test_batched_level_sums_match(self, arity, t, rng):
        per_tree = arity * 3
        nodes = blocks.random_blocks(t * per_tree, rng)
        batched = batched_level_sums(nodes, arity, t)
        for i in range(t):
            one = level_sums(nodes[i * per_tree : (i + 1) * per_tree], arity)
            assert np.array_equal(batched[i], one)

    @pytest.mark.parametrize("arity,depth,t", [(2, 5, 4), (4, 3, 3)])
    def test_batched_reconstruction_matches(self, arity, depth, t, rng):
        prg = ChaChaTreePrg(arity)
        seeds = blocks.random_blocks(t, rng)
        alphas = rng.integers(0, arity**depth, t)
        digits = np.array([alpha_digits(int(a), arity, depth) for a in alphas])
        sums, full = expand_forest(ChaChaTreePrg(arity), seeds, depth)
        # The OT never delivers the punctured slot's sum: garbage there is ignored.
        sums[np.arange(depth)[:, None], np.arange(t), digits.T] = 0xBAD
        leaves, holes = reconstruct_forest(prg, digits, sums)
        expect = full.copy()
        assert np.array_equal(holes, alphas)
        expect[np.arange(t), alphas] = 0
        assert np.array_equal(leaves, expect)

    @pytest.mark.parametrize("shape", [(1, 1, 2), (3, 5, 8), (7, 2728, 2), (2, 3, 4096)])
    def test_tree_xor_matches_middle_axis_reduce(self, shape, rng):
        per_tree = blocks.random_blocks(int(np.prod(shape)) // 2, rng).reshape(shape)
        assert np.array_equal(tree_xor(per_tree), np.bitwise_xor.reduce(per_tree, axis=1))

    @pytest.mark.parametrize("arity,t", [(2, 3), (4, 4), (8, 2)])
    @pytest.mark.parametrize("with_buffers", [False, True])
    def test_reconstruction_matches_single_tree_oracle(self, arity, t, with_buffers, rng):
        depth = {2: 5, 4: 3, 8: 2}[arity]
        n = t * arity**depth  # full blocks: the oracle rebuilds full trees
        ((_, count, run_depth, kept, _),) = mpcot_plan(n, t, arity).runs
        assert (count, run_depth, kept) == (t, depth, arity**depth)
        prg = ChaChaTreePrg(arity)
        buffers = mpcot_buffers(prg, n, t) if with_buffers else None
        seeds = blocks.random_blocks(t, rng)
        alphas = rng.integers(0, kept, t)
        digits = np.array([alpha_digits(int(a), arity, depth) for a in alphas])
        sums, _ = expand_forest(ChaChaTreePrg(arity), seeds, depth, kept)
        leaves, holes = reconstruct_forest(prg, digits, sums, kept, buffers)
        for i, alpha in enumerate(alphas):
            known = [
                {j: sums[lvl, i, j : j + 1] for j in range(arity) if j != digits[i, lvl]}
                for lvl in range(depth)
            ]
            one, hole = reconstruct_punctured(ChaChaTreePrg(arity), depth, int(alpha), known)
            assert hole == holes[i] == alpha
            assert np.array_equal(leaves[i], one)

    def test_reconstructor_validates_digit_shape(self):
        sums = np.zeros((3, 2, 4, 2), dtype=blocks.BLOCK_DTYPE)
        with pytest.raises(ParameterError):
            reconstruct_forest(ChaChaTreePrg(4), np.zeros((2, 2)), sums)  # depth 2 vs 3
        with pytest.raises(ParameterError):
            reconstruct_forest(ChaChaTreePrg(4), np.full((2, 3), 7), sums)  # digit out of range


class TestPrunedGgm:
    """A forest pruned to the first ``kept`` leaves of each tree equals the
    full expansion on every kept leaf and hole."""

    @pytest.mark.parametrize("arity,depth,t", [(2, 5, 3), (4, 3, 4), (8, 2, 2)])
    @pytest.mark.parametrize("which", ["one", "one_past_a_subtree", "all"])
    def test_prefixes_and_holes_match_full_trees(self, arity, depth, t, which, rng):
        kept = {"one": 1, "one_past_a_subtree": arity ** (depth - 1) + 1, "all": arity**depth}[
            which
        ]
        seeds = blocks.random_blocks(t, rng)
        _, full_leaves = expand_forest(ChaChaTreePrg(arity), seeds, depth)
        sums, pruned_leaves = expand_forest(ChaChaTreePrg(arity), seeds, depth, kept)
        assert np.array_equal(pruned_leaves[:, :kept], full_leaves[:, :kept])

        widths = pruned_widths(arity, depth, kept)
        assert pruned_leaves.shape == (t, arity * widths[-2], 2)
        for i in range(t):
            single = expand_full(ChaChaTreePrg(arity), seeds[i : i + 1], depth)
            for lvl in range(1, depth + 1):
                computed = single[lvl][: arity * widths[lvl - 1]]
                assert np.array_equal(sums[lvl - 1, i], level_sums(computed, arity))
        alphas = rng.integers(0, kept, t)
        digits = np.array([alpha_digits(int(a), arity, depth) for a in alphas])
        leaves, holes = reconstruct_forest(ChaChaTreePrg(arity), digits, sums, kept)
        assert np.array_equal(holes, alphas)
        expect = full_leaves[:, :kept].copy()
        expect[np.arange(t), alphas] = 0
        assert np.array_equal(leaves[:, :kept], expect)

    def test_pruned_tree_expands_only_the_kept_paths(self):
        prg = ChaChaTreePrg(4)
        expand_forest(prg, blocks.zeros(3), 3, kept=17)
        # p = 1, 2, 5 nodes expanded at levels 0, 1, 2 of each tree.
        assert pruned_widths(4, 3, 17) == [1, 2, 5, 17]
        assert prg.total_calls == 3 * (1 + 2 + 5)

    @pytest.mark.parametrize("kept", [0, 65])
    def test_kept_outside_the_tree_raises(self, kept):
        with pytest.raises(ParameterError):
            expand_forest(ChaChaTreePrg(4), blocks.zeros(2), 3, kept)
        sums = np.zeros((3, 2, 4, 2), dtype=blocks.BLOCK_DTYPE)
        with pytest.raises(ParameterError):
            reconstruct_forest(ChaChaTreePrg(4), np.zeros((2, 3)), sums, kept)

    def test_puncture_past_the_kept_leaves_raises(self):
        digits = np.array([alpha_digits(17, 4, 3)])
        sums = np.zeros((3, 1, 4, 2), dtype=blocks.BLOCK_DTYPE)
        with pytest.raises(ParameterError):
            reconstruct_forest(ChaChaTreePrg(4), digits, sums, kept=17)


class TestBatchedSpcot:
    @pytest.mark.parametrize("arity,depth,t", [(2, 5, 3), (4, 3, 4), (8, 2, 2)])
    def test_invariant_holds(self, delta, arity, depth, t, rng):
        pool_s, pool_r = make_pools(t * cots_needed(arity**depth, arity), delta)
        alphas = rng.integers(0, arity**depth, t)
        prg_s, prg_r = ChaChaTreePrg(arity), ChaChaTreePrg(arity)
        send_rng = np.random.default_rng(3)
        w, vres, _, _ = run_pair(
            lambda ch: spcot_send_batch(ch, pool_s, delta, prg_s, depth, t, send_rng),
            lambda ch: spcot_receive_batch(ch, pool_r, alphas, prg_r, depth),
        )
        v, holes = vres
        assert np.array_equal(holes, alphas)
        for i in range(t):
            u = np.zeros(arity**depth, dtype=np.uint8)
            u[alphas[i]] = 1
            expect = blocks.xor(v[i], blocks.mul_bit(delta, u))
            assert np.all(blocks.equal(w[i], expect))

    def test_rounds_independent_of_tree_count(self, delta, rng):
        """One exchange per run: the sender answers once, in three
        messages, whatever t, depth and arity."""
        for arity, depth in [(2, 6), (4, 3), (8, 2)]:
            for t in (2, 16):
                pool_s, pool_r = make_pools(t * cots_needed(arity**depth, arity), delta)
                alphas = rng.integers(0, arity**depth, t)
                send_rng = np.random.default_rng(4)
                prg_s, prg_r = ChaChaTreePrg(arity), ChaChaTreePrg(arity)
                _, _, s_stats, r_stats = run_pair(
                    lambda ch: spcot_send_batch(ch, pool_s, delta, prg_s, depth, t, send_rng),
                    lambda ch: spcot_receive_batch(ch, pool_r, alphas, prg_r, depth),
                )
                assert s_stats.rounds == 1
                assert s_stats.messages_sent == 3  # e0, e1, masked sums + psi
                assert r_stats.messages_sent == 1  # the correction bits

    @pytest.mark.parametrize("alpha", [-1, 64])
    def test_alpha_outside_the_tree_raises(self, alpha):
        """Checked before any message: the channel and pool go unused."""
        with pytest.raises(ParameterError, match="out of range for 4\\^3"):
            spcot_receive_batch(None, None, np.array([3, alpha]), ChaChaTreePrg(4), 3)


class TestEquivalence:
    """One-shot MPCOT == sequential oracle, bit for bit."""

    @pytest.mark.parametrize(
        "arity,prg_cls,n,t",
        [
            (2, AesTreePrg, 50, 4),
            (2, ChaChaTreePrg, 77, 5),
            (4, ChaChaTreePrg, 100, 7),
            (4, AesTreePrg, 64, 3),
            (8, ChaChaTreePrg, 60, 3),
            (4, ChaChaTreePrg, 64, 1),  # single tree degenerates cleanly
        ],
    )
    def test_outputs_bit_identical(self, delta, arity, prg_cls, n, t):
        res = run_both_paths(n, t, arity, prg_cls, delta)
        assert np.array_equal(res[False]["w"], res[True]["w"])
        assert np.array_equal(res[False]["u"], res[True]["u"])
        assert np.array_equal(res[False]["v"], res[True]["v"])

    @pytest.mark.parametrize("arity,prg_cls", [(2, AesTreePrg), (4, ChaChaTreePrg)])
    def test_prg_calls_identical(self, delta, arity, prg_cls):
        """The shipped count is the pruned closed form, below the full-tree
        oracle's, with the same outputs."""
        res = run_both_paths(90, 4, arity, prg_cls, delta)
        kind = "aes" if prg_cls is AesTreePrg else "chacha8"
        shipped, oracle = res[True]["prg_calls"], res[False]["prg_calls"]
        assert shipped == mpcot_prg_calls(90, 4, arity, kind)
        assert all(s < o for s, o in zip(shipped, oracle))
        for key in ("w", "u", "v"):
            assert np.array_equal(res[False][key], res[True][key])

    def test_pruning_at_two_levels(self, delta):
        """Blocks of 21 (not a power of 4) prune levels 1 and 2 of every
        depth-3 tree; the kept leaves still match the oracle."""
        assert pruned_widths(4, 3, 21) == [1, 2, 6, 21]  # full: 1, 4, 16, 64
        res = run_both_paths(105, 5, 4, ChaChaTreePrg, delta)
        for key in ("w", "u", "v"):
            assert np.array_equal(res[False][key], res[True][key])
        assert res[True]["prg_calls"] == mpcot_prg_calls(105, 5, 4, "chacha8") == (45, 40)
        assert res[False]["prg_calls"] == (5 * 21, 5 * 20)

    def test_cot_consumption_identical(self, delta):
        res = run_both_paths(100, 7, 4, ChaChaTreePrg, delta)
        assert res[False]["pool_left"] == res[True]["pool_left"] == (0, 0)

    def test_batched_rounds_are_fewer(self, delta):
        """t * depth * log2(arity) OT round trips collapse into one per run."""
        res = run_both_paths(128, 8, 4, ChaChaTreePrg, delta)
        assert res[False]["rounds"][0] == 8 * 2 * 2  # t trees, depth 2, 2 key-tree levels
        assert res[True]["rounds"][0] == len(depth_runs(block_sizes(128, 8), 4)) == 1

    @given(
        seed=st.integers(0, 10_000),
        arity=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_randomized_sweep(self, seed, arity, delta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 120))
        t = int(rng.integers(1, min(n, 8) + 1))
        res = run_both_paths(
            n, t, arity, ChaChaTreePrg, delta, rng_seed=seed + 1, alpha_seed=seed + 2
        )
        assert np.array_equal(res[False]["w"], res[True]["w"])
        assert np.array_equal(res[False]["u"], res[True]["u"])
        assert np.array_equal(res[False]["v"], res[True]["v"])
        shipped, oracle = res[True]["prg_calls"], res[False]["prg_calls"]
        assert shipped == mpcot_prg_calls(n, t, arity, "chacha8")
        assert all(s <= o for s, o in zip(shipped, oracle))
        # And the one-shot run is still a valid MPCOT.
        w, u, v = res[True]["w"], res[True]["u"], res[True]["v"]
        assert u.sum() == t
        assert np.all(blocks.equal(w, blocks.xor(v, blocks.mul_bit(delta, u))))


class TestPrgCallClosedForm:
    """ROADMAP 1(a) at a small scale: the measured PRG core calls of both
    parties equal :func:`mpcot_prg_calls`."""

    @pytest.mark.parametrize(
        "arity,n,t,n_runs",
        [
            (2, 69, 3, 1),  # blocks of 23 in 32-leaf trees
            (2, 50, 3, 2),  # 17, 17 | 16
            (4, 100, 5, 1),  # blocks of 20 in 64-leaf trees
            (4, 50, 3, 2),  # 17, 17 | 16
            (8, 60, 3, 1),  # blocks of 20 in 64-leaf trees
            (8, 129, 2, 2),  # 65 | 64
        ],
    )
    @pytest.mark.parametrize("kind", ["aes", "chacha8"])
    def test_measured_calls_equal_closed_form(self, delta, arity, n, t, n_runs, kind):
        assert len(depth_runs(block_sizes(n, t), arity)) == n_runs
        pool_s, pool_r = make_pools(mpcot_cots_needed(n, t, arity), delta)
        prg_s, prg_r = make_tree_prg(kind, arity), make_tree_prg(kind, arity)
        alphas = sample_alphas(n, t, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        run_pair(
            lambda ch: mpcot_send(ch, pool_s, delta, prg_s, n, t, rng),
            lambda ch: mpcot_receive(ch, pool_r, alphas, prg_r, n, t),
        )
        assert (prg_s.total_calls, prg_r.total_calls) == mpcot_prg_calls(n, t, arity, kind)

    def test_table4_2pow20_count(self):
        """480 trees of 4 096 leaves, each keeping 2 544 or 2 545 of them."""
        params = TABLE4_BY_LABEL["2^20"]
        sender, receiver = mpcot_prg_calls(params.n, params.t, 4, "chacha8")
        assert sender == 408_480
        assert receiver == sender - params.t
        assert params.t * expansion_calls(4096, 4, "chacha8") == 655_200


class TestDepthRuns:
    def test_regular_noise_gives_at_most_two_runs(self):
        for n, t, arity in [(100, 7, 4), (1000, 33, 2), (64, 64, 4), (77, 5, 2)]:
            runs = depth_runs(block_sizes(n, t), arity)
            assert len(runs) <= 2
            assert sum(r[1] for r in runs) == t

    def test_runs_cover_trees_in_order(self):
        sizes = block_sizes(100, 7)
        runs = depth_runs(sizes, 4)
        covered = []
        for first, count, depth in runs:
            for i in range(first, first + count):
                assert tree_depth_for(sizes[i], 4) == depth
                covered.append(i)
        assert covered == list(range(7))
