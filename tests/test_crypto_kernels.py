"""A tree PRG's reused output and state buffers must not change a
single expanded block.  ``chacha_core`` itself and the LPN gather-XOR
are pinned to their oracles in ``tests/test_chacha.py`` and
``tests/test_lpn.py``; the tree PRG's children in ``tests/test_prg.py``.
"""

import numpy as np

from repro.crypto.prg import ChaChaTreePrg, make_tree_prg
from repro.crypto import blocks


class TestChaChaBuffers:
    """Expansion output is a function of (parent values, level) only,
    whatever buffers the caller hands in."""

    def test_reused_buffers_do_not_change_expansion(self):
        rng = np.random.default_rng(11)
        for arity in (2, 4, 8, 16):
            nodes = blocks.random_blocks(6, rng)
            fresh = ChaChaTreePrg(arity=arity, rounds=8)
            reused = ChaChaTreePrg(arity=arity, rounds=8)
            out = np.full((6 * arity, 2), 0xA5, dtype=blocks.BLOCK_DTYPE)
            state = reused.state_buffer(6)
            state[:] = 0x5A5A5A5A
            for level in (0, 1, 5):  # the same buffers, dirty from the last level
                want = fresh.expand(nodes, level)
                got = reused.expand(nodes, level, out=out, state=state)
                assert got is out
                assert np.array_equal(got, want), (arity, level)
            assert reused.total_calls == fresh.total_calls

    def test_one_state_buffer_serves_smaller_batches(self):
        rng = np.random.default_rng(12)
        for arity in (2, 4, 8, 16):
            prg = ChaChaTreePrg(arity=arity, rounds=8)
            state = prg.state_buffer(5)
            for n in (5, 3, 1):
                nodes = blocks.random_blocks(n, rng)
                want = ChaChaTreePrg(arity=arity, rounds=8).expand(nodes, 3)
                assert np.array_equal(prg.expand(nodes, 3, state=state), want), (arity, n)

    def test_factory_output_stable_across_instances(self):
        rng = np.random.default_rng(13)
        nodes = blocks.random_blocks(4, rng)
        a = make_tree_prg("chacha8", arity=4).expand(nodes, 2)
        b = make_tree_prg("chacha8", arity=4).expand(nodes, 2)
        assert np.array_equal(a, b)

    def test_shared_instance_concurrent_expand_bit_exact(self):
        # Regression: a shared PRG instance is hit from both parties'
        # worker threads when a two-party protocol runs in one process
        # (the SPCOT key tree was one until it moved onto AES).  A state
        # buffer held by the instance let one thread rewrite key words
        # while the other was mid-permutation, corrupting a few
        # children; without a caller's buffer each call builds its
        # states in its own, so concurrent expands stay bit-exact.
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
