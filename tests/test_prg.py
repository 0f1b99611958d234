"""Tree-PRG tests: arity semantics, call accounting, closed forms, the
word-major ChaCha kernel against its state-by-state reference."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import aes_encrypt_blocks_reference, chacha_tree_expand_reference

from repro.crypto import blocks, chacha
from repro.crypto.prg import (
    AesTreePrg,
    CHACHA_BLOCKS_PER_CALL,
    ChaChaTreePrg,
    _derive_aes_keys,
    expansion_calls,
    make_tree_prg,
    pruned_expansion_calls,
)
from repro.errors import ParameterError
from repro.spcot.ggm import _expand_prefix


@pytest.mark.parametrize("prg_factory", [lambda m: AesTreePrg(m), lambda m: ChaChaTreePrg(m)])
@pytest.mark.parametrize("arity", [2, 4, 8])
class TestExpandShape:
    def test_child_count(self, prg_factory, arity, rng):
        prg = prg_factory(arity)
        nodes = blocks.random_blocks(5, rng)
        out = prg.expand(nodes, level=0)
        assert out.shape == (5 * arity, 2)

    def test_children_grouped_by_parent(self, prg_factory, arity, rng):
        prg = prg_factory(arity)
        nodes = blocks.random_blocks(3, rng)
        full = prg.expand(nodes, level=1)
        for i in range(3):
            alone = prg_factory(arity).expand(nodes[i : i + 1], level=1)
            assert np.array_equal(full[i * arity : (i + 1) * arity], alone)

    def test_deterministic(self, prg_factory, arity, rng):
        nodes = blocks.random_blocks(4, rng)
        a = prg_factory(arity).expand(nodes, 2)
        b = prg_factory(arity).expand(nodes, 2)
        assert np.array_equal(a, b)

    def test_children_are_distinct(self, prg_factory, arity, rng):
        prg = prg_factory(arity)
        out = prg.expand(blocks.random_blocks(1, rng), 0)
        seen = {blocks.to_bytes(out[i : i + 1]) for i in range(arity)}
        assert len(seen) == arity


class TestCallAccounting:
    def test_aes_calls_per_expand(self, rng):
        prg = AesTreePrg(arity=4)
        prg.expand(blocks.random_blocks(10, rng), 0)
        assert prg.total_calls == 40

    def test_chacha_calls_per_expand_4ary(self, rng):
        prg = ChaChaTreePrg(arity=4)
        prg.expand(blocks.random_blocks(10, rng), 0)
        assert prg.total_calls == 10  # one 512-bit call covers 4 children

    def test_chacha_calls_per_expand_8ary(self, rng):
        prg = ChaChaTreePrg(arity=8)
        prg.expand(blocks.random_blocks(10, rng), 0)
        assert prg.total_calls == 20

    def test_reset_counter(self, rng):
        prg = ChaChaTreePrg(arity=2)
        prg.expand(blocks.random_blocks(2, rng), 0)
        prg.reset_counter()
        assert prg.total_calls == 0

    def test_chacha_2ary_wastes_half_the_call(self, rng):
        prg = ChaChaTreePrg(arity=2)
        prg.expand(blocks.random_blocks(6, rng), 0)
        assert prg.total_calls == 6


class TestClosedForm:
    """The paper's operation counts (Section 4.1 / Figure 7(a))."""

    def test_binary_aes_2l_minus_2(self):
        assert expansion_calls(4096, 2, "aes") == 2 * 4095

    def test_mary_aes_formula(self):
        # m * (l - 1) / (m - 1)
        assert expansion_calls(4096, 4, "aes") == 4 * 4095 // 3

    def test_4ary_chacha_is_6x_cheaper_than_2ary_aes(self):
        base = expansion_calls(4096, 2, "aes")
        ours = expansion_calls(4096, 4, "chacha8")
        assert base / ours == pytest.approx(6.0, rel=0.01)

    def test_fig7a_4ary_reduction(self):
        two = expansion_calls(4**6, 2, "chacha8")
        four = expansion_calls(4**6, 4, "chacha8")
        assert two / four == pytest.approx(2.99, rel=0.02)

    def test_fig7a_32ary_reduction(self):
        two = expansion_calls(4**6, 2, "chacha8")
        thirty_two = expansion_calls(4**6, 32, "chacha8")
        assert two / thirty_two == pytest.approx(3.86, rel=0.02)

    @pytest.mark.parametrize("arity", [2, 4])
    @pytest.mark.parametrize("kind", ["aes", "chacha8"])
    def test_closed_form_matches_actual_expansion(self, arity, kind, rng):
        depth = 3
        prg = make_tree_prg(kind, arity)
        nodes = blocks.random_blocks(1, rng)
        for lvl in range(depth):
            nodes = prg.expand(nodes, lvl)
        assert prg.total_calls == expansion_calls(arity**depth, arity, kind)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            expansion_calls(16, 2, "des")


class TestPrunedClosedForm:
    """Expanding only the nodes above the first ``kept`` leaves."""

    @pytest.mark.parametrize("arity,depth", [(2, 5), (4, 3), (8, 2), (32, 2)])
    @pytest.mark.parametrize("kind", ["aes", "chacha8"])
    def test_full_tree_equals_expansion_calls(self, arity, depth, kind):
        leaves = arity**depth
        assert pruned_expansion_calls(leaves, leaves, arity, kind) == expansion_calls(
            leaves, arity, kind
        )

    def test_ledger_tree(self):
        # 2 727 of 4 096 leaves: 1 + 3 + 11 + 43 + 171 + 682 ChaCha calls.
        assert pruned_expansion_calls(2727, 4096, 4, "chacha8") == 911
        assert expansion_calls(4096, 4, "chacha8") == 1365

    def test_one_leaf_is_one_path(self):
        assert pruned_expansion_calls(1, 4**6, 4, "chacha8") == 6
        assert pruned_expansion_calls(1, 2**5, 2, "aes") == 5 * 2

    @pytest.mark.parametrize("kept", [0, 65])
    def test_rejects_kept_outside_the_tree(self, kept):
        with pytest.raises(ParameterError):
            pruned_expansion_calls(kept, 64, 4, "chacha8")

    def test_rejects_leaf_count_not_a_power(self):
        with pytest.raises(ParameterError):
            pruned_expansion_calls(10, 48, 4, "chacha8")


class TestFactory:
    def test_factory_kinds(self):
        assert make_tree_prg("aes", 2).name == "aes"
        assert make_tree_prg("chacha8", 4).name == "chacha8"
        assert make_tree_prg("chacha20", 4).rounds == 20

    def test_factory_rejects_unknown(self):
        with pytest.raises(ParameterError):
            make_tree_prg("sha256", 2)

    def test_rejects_unary(self):
        with pytest.raises(ParameterError):
            AesTreePrg(arity=1)
        with pytest.raises(ParameterError):
            ChaChaTreePrg(arity=1)

    def test_chacha_blocks_per_call_constant(self):
        assert CHACHA_BLOCKS_PER_CALL == 4  # 512-bit output


class TestAesTreeKernel:
    """``AesTreePrg.expand`` encrypts every parent once per cipher into
    its state buffer and XORs into the caller's children; children must
    equal ``AES_{k_j}(s) XOR s`` from the numpy reference AES."""

    @given(
        arity=st.sampled_from((2, 4)),
        n=st.integers(1, 40),
        pruned=st.booleans(),
        buffers=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_expand_matches_reference(self, arity, n, pruned, buffers, seed):
        gen = np.random.default_rng(seed)
        prg = AesTreePrg(arity=arity, master_key=b"test-aes-tree")
        if pruned:
            level_nodes = blocks.random_blocks(2 * (n + 3), gen)
            nodes = level_nodes.reshape(2, n + 3, 2)[:, :n].reshape(-1, 2)
            parents = level_nodes.reshape(2, n + 3, 2)[:, :n]
        else:
            nodes = parents = blocks.random_blocks(n, gen)
        rows = nodes.shape[0] * arity
        out = np.empty((rows, 2), dtype=blocks.BLOCK_DTYPE) if buffers else None
        state = prg.state_buffer(nodes.shape[0] + 5) if buffers else None
        for _ in range(2):  # the state buffer is reused
            got = prg.expand(parents, 1, out=out, state=state)
            assert out is None or got is out
            for j, key in enumerate(_derive_aes_keys(b"test-aes-tree", arity)):
                want = aes_encrypt_blocks_reference(key, nodes) ^ nodes
                assert np.array_equal(got[j::arity], want)

    def test_a_short_state_buffer_is_refused(self, rng):
        prg = AesTreePrg(arity=2)
        with pytest.raises(ParameterError, match="state must be a block array"):
            prg.expand(blocks.random_blocks(4, rng), 0, state=prg.state_buffer(3))


class TestWordMajorKernel:
    """``ChaChaTreePrg.expand`` builds its states word-major, ``(16, N)``,
    and permutes them chunk by chunk; children must equal the RFC layout
    run state by state through ``chacha_core_reference``."""

    @given(
        arity=st.sampled_from((2, 4, 8, 16)),
        rounds=st.sampled_from((8, 20)),
        chunk=st.sampled_from((4, 16)),
        size=st.sampled_from(("one", "seven", "chunk-1", "chunk+1")),
        level=st.integers(0, 2**32 - 1),
        pruned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_expand_matches_state_by_state_reference(
        self, arity, rounds, chunk, size, level, pruned, seed
    ):
        """Contiguous parents, or the first ``n`` of every tree of a wider
        batched level (the pruned GGM forest's prefix); the parent count
        straddles the patched chunk size."""
        n = {"one": 1, "seven": 7, "chunk-1": chunk - 1, "chunk+1": chunk + 1}[size]
        gen = np.random.default_rng(seed)
        prg = ChaChaTreePrg(arity=arity, rounds=rounds)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chacha, "CHUNK_STATES", chunk)
            if pruned:
                level_nodes = blocks.random_blocks(3 * (n + 2), gen)
                nodes = level_nodes.reshape(3, n + 2, 2)[:, :n].reshape(-1, 2)
                got = _expand_prefix(prg, level_nodes, 3, n, level)
            else:
                nodes = blocks.random_blocks(n, gen)
                got = prg.expand(nodes, level)
        want = chacha_tree_expand_reference(nodes, level, arity, rounds)
        assert got.shape == (nodes.shape[0] * arity, 2)
        assert np.array_equal(got, want)
        assert prg.total_calls == nodes.shape[0] * -(-arity // CHACHA_BLOCKS_PER_CALL)

    def test_shared_instance_under_a_tiny_switch_interval(self):
        """Eight threads expand through one instance, at equal and
        different batch sizes; the instance holds no state an expand
        writes, so every result must equal the single-thread one."""
        gen = np.random.default_rng(21)
        prg = ChaChaTreePrg(arity=4)
        jobs = []
        for idx, n in enumerate((7, 7, 42, 42, 171, 171, 3, 3)):
            nodes = blocks.random_blocks(n, gen)
            jobs.append((nodes, idx % 5, ChaChaTreePrg(arity=4).expand(nodes, idx % 5)))
        bad = [0] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def hammer(idx, nodes, level, want):
            barrier.wait()
            for _ in range(60):
                if not np.array_equal(prg.expand(nodes, level), want):
                    bad[idx] += 1

        threads = [threading.Thread(target=hammer, args=(i, *job)) for i, job in enumerate(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == [0] * len(jobs)
