"""Optional compiled kernels: dispatch transparency and oracles.

``repro.crypto.kernels`` must be value-transparent -- bit-identical to
the numpy oracles (``tests/oracles.py``) whether or not numba is
importable -- and the
ChaChaTreePrg state-template cache (the hoisted key schedule) must not
change a single expanded block.
"""

import numpy as np
import pytest
from oracles import chacha_core_reference as chacha_oracle

from repro.crypto import kernels
from repro.crypto.prg import ChaChaTreePrg, make_tree_prg
from repro.crypto import blocks


def random_states(n, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 32, (n, 16), dtype=np.uint64).astype(np.uint32)


class TestChaChaDispatch:
    @pytest.mark.parametrize("n", [1, 8, kernels.NUMBA_MIN_ROWS + 5])
    def test_matches_numpy_oracle(self, n):
        initial = random_states(n, seed=n)
        got = kernels.chacha_core(initial, 8)
        assert np.array_equal(got, chacha_oracle(initial, 8))

    def test_small_batches_never_use_numba(self, monkeypatch):
        # Below NUMBA_MIN_ROWS the dispatcher must not touch the JIT --
        # poison it and check the numpy path still serves.
        monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
        monkeypatch.setattr(kernels, "_chacha_rows", None, raising=False)
        initial = random_states(16, seed=1)
        got = kernels.chacha_core(initial, 8)
        assert np.array_equal(got, chacha_oracle(initial, 8))

    @pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
    def test_numba_bit_exact_at_scale(self):
        initial = random_states(kernels.NUMBA_MIN_ROWS * 2, seed=7)
        for rounds in (8, 12, 20):
            got = kernels.chacha_core(initial, rounds)
            assert np.array_equal(got, chacha_oracle(initial, rounds))


class TestGatherXorDispatch:
    def _case(self, rows, seed):
        rng = np.random.default_rng(seed)
        k = 64
        indices = rng.integers(0, k, (rows, 4), dtype=np.int64)
        vec = blocks.random_blocks(k, rng)
        addend = blocks.random_blocks(rows, rng)
        return indices, vec, addend

    def oracle(self, indices, vec, addend):
        out = addend.copy()
        for t in range(indices.shape[1]):
            out ^= vec[indices[:, t]]
        return out

    def test_none_signals_numpy_fallback_for_small_batches(self):
        indices, vec, addend = self._case(8, seed=2)
        assert kernels.gather_xor_blocks(indices, vec, addend) is None

    @pytest.mark.skipif(kernels.HAVE_NUMBA, reason="covers the no-numba path")
    def test_none_without_numba_at_any_size(self):
        indices, vec, addend = self._case(kernels.NUMBA_MIN_ROWS * 2, seed=3)
        assert kernels.gather_xor_blocks(indices, vec, addend) is None

    @pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
    def test_numba_bit_exact_at_scale(self):
        indices, vec, addend = self._case(kernels.NUMBA_MIN_ROWS * 2, seed=4)
        got = kernels.gather_xor_blocks(indices, vec, addend)
        assert got is not None
        assert np.array_equal(got, self.oracle(indices, vec, addend))


class TestChaChaTemplateCache:
    """The hoisted state schedule is a pure cache: expansion output is a
    function of (parent values, level) only."""

    def test_cached_template_does_not_change_expansion(self):
        rng = np.random.default_rng(11)
        nodes = blocks.random_blocks(6, rng)
        fresh = ChaChaTreePrg(arity=4, rounds=8)
        warmed = ChaChaTreePrg(arity=4, rounds=8)
        for level in (0, 1, 5):  # re-hitting the same (n,) cache entry
            a = fresh.expand(nodes, level)
            b = warmed.expand(nodes, level)
            c = warmed.expand(nodes, level)
            assert np.array_equal(a, b)
            assert np.array_equal(b, c)
        assert list(warmed._state_cache) == [6]

    def test_template_cache_keyed_by_batch_size(self):
        rng = np.random.default_rng(12)
        prg = ChaChaTreePrg(arity=4, rounds=8)
        prg.expand(blocks.random_blocks(3, rng), 0)
        prg.expand(blocks.random_blocks(5, rng), 0)
        assert sorted(prg._state_cache) == [3, 5]

    def test_factory_output_stable_across_instances(self):
        rng = np.random.default_rng(13)
        nodes = blocks.random_blocks(4, rng)
        a = make_tree_prg("chacha8", arity=4).expand(nodes, 2)
        b = make_tree_prg("chacha8", arity=4).expand(nodes, 2)
        assert np.array_equal(a, b)

    def test_shared_instance_concurrent_expand_bit_exact(self):
        # Regression: the state template is mutated in place per expand,
        # and module-level PRG instances (spcot.protocol._KEY_TREE_PRG)
        # are hit from both parties' worker threads when a two-party
        # protocol runs in one process.  With a process-wide template
        # cache, one thread rewrites key words while the other is
        # mid-permutation, corrupting a few children; the cache must be
        # per-thread so concurrent expands stay bit-exact.
        import sys
        import threading

        rng = np.random.default_rng(14)
        prg = ChaChaTreePrg(arity=2, rounds=8)
        jobs = []
        for level in (1, 2):
            nodes = blocks.random_blocks(16, rng)
            ref = ChaChaTreePrg(arity=2, rounds=8).expand(nodes, level)
            jobs.append((nodes, level, ref))
        bad = [0] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def worker(idx, nodes, level, ref):
            barrier.wait()
            for _ in range(500):
                if not np.array_equal(prg.expand(nodes, level), ref):
                    bad[idx] += 1

        threads = [
            threading.Thread(target=worker, args=(i, *job))
            for i, job in enumerate(jobs)
        ]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force frequent preemption
        try:
            [t.start() for t in threads]
            [t.join() for t in threads]
        finally:
            sys.setswitchinterval(old_interval)
        assert bad == [0] * len(jobs)
