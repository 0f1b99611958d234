"""The ChaChaTreePrg state-template cache (the hoisted key schedule)
must not change a single expanded block.  ``chacha_core`` itself and
the LPN gather-XOR are pinned to their oracles in ``tests/test_chacha.py``
and ``tests/test_lpn.py``.
"""

import numpy as np

from repro.crypto.prg import ChaChaTreePrg, make_tree_prg
from repro.crypto import blocks


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
