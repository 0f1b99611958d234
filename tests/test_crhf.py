"""Correlation-robust hash (MMO) tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import crhf_hash_reference
from strategies import AES_CHUNK_EDGE_SIZES, AES_TEST_CHUNK, KernelStrategies

from repro.crypto import aes, blocks
from repro.crypto.crhf import Crhf, DEFAULT_CRHF, sigma
from repro.errors import ParameterError

KEY = bytes(range(16, 32))


class TestSigma:
    def test_sigma_is_linear(self, rng):
        a = blocks.random_blocks(8, rng)
        b = blocks.random_blocks(8, rng)
        assert np.array_equal(sigma(blocks.xor(a, b)), blocks.xor(sigma(a), sigma(b)))

    def test_sigma_is_a_bijection(self, rng):
        # sigma(a||b) = (a^b)||a  =>  inverse exists: (lo, hi) -> (hi, lo^hi)
        x = blocks.random_blocks(16, rng)
        s = sigma(x)
        inv = np.empty_like(s)
        inv[:, 0] = s[:, 1]
        inv[:, 1] = s[:, 0] ^ s[:, 1]
        assert np.array_equal(inv, x)

    def test_sigma_has_no_fixed_subspace_on_samples(self, rng):
        x = blocks.random_blocks(64, rng)
        assert not np.any(blocks.equal(sigma(x), x))


class TestHash:
    def test_deterministic(self, rng):
        x = blocks.random_blocks(8, rng)
        assert np.array_equal(DEFAULT_CRHF.hash(x), DEFAULT_CRHF.hash(x))

    def test_batch_matches_single(self, rng):
        x = blocks.random_blocks(8, rng)
        full = DEFAULT_CRHF.hash(x)
        for i in range(8):
            assert np.array_equal(full[i : i + 1], DEFAULT_CRHF.hash(x[i : i + 1]))

    def test_differs_from_input(self, rng):
        x = blocks.random_blocks(32, rng)
        assert not np.any(blocks.equal(DEFAULT_CRHF.hash(x), x))

    def test_keys_domain_separate(self, rng):
        x = blocks.random_blocks(8, rng)
        a = Crhf(b"K" * 16).hash(x)
        b = Crhf(b"L" * 16).hash(x)
        assert not np.any(blocks.equal(a, b))

    def test_breaks_delta_correlation(self, rng):
        # H(x) xor H(x xor Delta) must not be constant across x.
        delta = blocks.random_blocks(1, rng)
        x = blocks.random_blocks(64, rng)
        d = blocks.xor(DEFAULT_CRHF.hash(x), DEFAULT_CRHF.hash(blocks.xor(x, delta)))
        assert len({blocks.to_bytes(d[i : i + 1]) for i in range(64)}) == 64


class TestTweaked:
    def test_tweaks_domain_separate(self, rng):
        x = blocks.random_blocks(4, rng)
        t0 = DEFAULT_CRHF.hash_tweaked(x, np.zeros(4, dtype=np.uint64))
        t1 = DEFAULT_CRHF.hash_tweaked(x, np.ones(4, dtype=np.uint64))
        assert not np.any(blocks.equal(t0, t1))

    def test_zero_tweak_matches_plain_hash(self, rng):
        x = blocks.random_blocks(4, rng)
        assert np.array_equal(
            DEFAULT_CRHF.hash_tweaked(x, np.zeros(4, dtype=np.uint64)),
            DEFAULT_CRHF.hash(x),
        )

    def test_does_not_mutate_input(self, rng):
        x = blocks.random_blocks(4, rng)
        keep = x.copy()
        DEFAULT_CRHF.hash_tweaked(x, np.arange(4, dtype=np.uint64))
        assert np.array_equal(x, keep)

    @pytest.mark.parametrize(
        "tweaks", [np.uint64(7), np.array([7], dtype=np.uint64), np.zeros((4, 1), np.uint64)]
    )
    def test_rejects_tweaks_that_would_broadcast(self, rng, tweaks):
        """A scalar or length-1 tweak used to be broadcast: every OT of
        the batch then shared one tweak."""
        with pytest.raises(ParameterError, match="tweaks"):
            DEFAULT_CRHF.hash_tweaked(blocks.random_blocks(4, rng), tweaks)

    def test_one_tweak_for_one_block_is_fine(self, rng):
        x = blocks.random_blocks(1, rng)
        got = DEFAULT_CRHF.hash_tweaked(x, np.array([7], dtype=np.uint64))
        assert np.array_equal(got, DEFAULT_CRHF.hash_tweaked(x, [7]))


class TestAgainstReference:
    """The one-buffer, in-place-feed-forward hash against the MMO hash
    written out step by step over the reference cipher."""

    @given(
        x=KernelStrategies.block_arrays(AES_CHUNK_EDGE_SIZES),
        tweak_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        chunk=st.sampled_from((AES_TEST_CHUNK, aes.CHUNK_BLOCKS)),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_hash_and_hash_tweaked(self, x, tweak_seed, chunk):
        kept = x.copy()
        crhf = Crhf(KEY)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aes, "CHUNK_BLOCKS", chunk)
            if tweak_seed is None:
                tweaks = None
                got = crhf.hash(x)
            else:
                tweaks = np.random.default_rng(tweak_seed).integers(
                    0, 2**64, x.shape[0], dtype=np.uint64
                )
                got = crhf.hash_tweaked(x, tweaks)
        assert got.dtype == np.uint64 and got.shape == x.shape
        assert np.array_equal(got, crhf_hash_reference(KEY, x, tweaks))
        assert np.array_equal(x, kept)
        assert not np.shares_memory(got, x)
