"""AES-128 known-answer and structural tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import aes_encrypt_blocks_reference
from strategies import AES_CHUNK_EDGE_SIZES, AES_TEST_CHUNK, KernelStrategies

from repro.crypto import aes, blocks
from repro.crypto.aes import AES128, ROUNDS, _SBOX, expand_key
from repro.errors import ParameterError

# FIPS-197 Appendix C.1.
FIPS_KEY = bytes(range(16))
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# FIPS-197 Appendix B (the worked example).
APPB_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
APPB_PT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
APPB_CT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")


class TestKnownAnswers:
    def test_fips_c1_vector(self):
        assert AES128(FIPS_KEY).encrypt_bytes(FIPS_PT) == FIPS_CT

    def test_fips_appendix_b_vector(self):
        assert AES128(APPB_KEY).encrypt_bytes(APPB_PT) == APPB_CT

    def test_sbox_spot_values(self):
        # S-box corners from the FIPS-197 table.
        assert _SBOX[0x00] == 0x63
        assert _SBOX[0x01] == 0x7C
        assert _SBOX[0x53] == 0xED
        assert _SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(_SBOX.tolist()) == list(range(256))


class TestKeySchedule:
    def test_shape(self):
        assert expand_key(FIPS_KEY).shape == (ROUNDS + 1, 4)

    def test_round0_is_the_key(self):
        rk = expand_key(APPB_KEY)
        packed = np.frombuffer(APPB_KEY, dtype="<u4")
        assert np.array_equal(rk[0], packed)

    def test_last_round_key_appendix_b(self):
        # FIPS-197 Appendix B: w[40..43] = d014f9a8 c9ee2589 e13f0cc8 b6630ca6
        rk = expand_key(APPB_KEY)
        expect = bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")
        assert rk[10].tobytes() == np.frombuffer(expect, dtype="<u4").tobytes()

    def test_rejects_wrong_key_length(self):
        with pytest.raises(ParameterError):
            expand_key(b"short")


class TestBatchKernel:
    @given(
        data=KernelStrategies.block_arrays(AES_CHUNK_EDGE_SIZES),
        key=st.binary(min_size=16, max_size=16),
        chunk=st.sampled_from((AES_TEST_CHUNK, aes.CHUNK_BLOCKS)),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_kernel_matches_word_at_a_time_reference(self, data, key, chunk):
        """The column-major in-place kernel against the per-column
        reference, on contiguous and strided batches, whole and split into
        chunks; the input comes back untouched (at n = 1 a transposed view
        of it is already contiguous, so an in-place first round would
        write through)."""
        kept = data.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aes, "CHUNK_BLOCKS", chunk)
            got = AES128(key).encrypt_blocks(data)
        assert got.dtype == np.uint64 and got.shape == data.shape
        assert np.array_equal(got, aes_encrypt_blocks_reference(key, data))
        assert np.array_equal(data, kept)
        assert not np.shares_memory(got, data)

    def test_batch_matches_per_block(self, rng):
        cipher = AES128(FIPS_KEY)
        data = blocks.random_blocks(33, rng)
        batch = cipher.encrypt_blocks(data)
        for i in range(33):
            single = cipher.encrypt_blocks(data[i : i + 1])
            assert np.array_equal(batch[i : i + 1], single)

    def test_deterministic(self, rng):
        cipher = AES128(FIPS_KEY)
        data = blocks.random_blocks(8, rng)
        assert np.array_equal(cipher.encrypt_blocks(data), cipher.encrypt_blocks(data))

    def test_different_keys_differ(self, rng):
        data = blocks.random_blocks(8, rng)
        a = AES128(b"A" * 16).encrypt_blocks(data)
        b = AES128(b"B" * 16).encrypt_blocks(data)
        assert not np.any(blocks.equal(a, b))

    def test_empty_batch(self):
        out = AES128(FIPS_KEY).encrypt_blocks(blocks.zeros(0))
        assert out.shape == (0, 2)

    def test_is_a_permutation_on_samples(self, rng):
        # distinct inputs must give distinct outputs
        data = blocks.random_blocks(256, rng)
        out = AES128(FIPS_KEY).encrypt_blocks(data)
        assert len({blocks.to_bytes(out[i : i + 1]) for i in range(256)}) == 256

    def test_avalanche(self):
        cipher = AES128(FIPS_KEY)
        a = blocks.single(0, 0)
        b = blocks.single(1, 0)
        ca, cb = cipher.encrypt_blocks(a), cipher.encrypt_blocks(b)
        diff = bin(blocks.to_int(ca) ^ blocks.to_int(cb)).count("1")
        assert 40 <= diff <= 88  # ~64 expected for a random permutation
