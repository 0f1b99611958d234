"""AES-128 known-answer, structural and thread tests.

The shipped cipher runs on libcrypto; the S-box and key-schedule tests
pin the numpy reference in ``tests/oracles.py`` that the property test
compares it with.
"""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _AES_ROUNDS, _SBOX, aes_encrypt_blocks_reference, expand_key
from strategies import AES_SIZES, KernelStrategies

from repro.crypto import aes, blocks
from repro.crypto.aes import AES128
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
        assert blocks.to_bytes(
            aes_encrypt_blocks_reference(FIPS_KEY, blocks.from_bytes(FIPS_PT))
        ) == FIPS_CT

    def test_fips_appendix_b_vector(self):
        assert AES128(APPB_KEY).encrypt_bytes(APPB_PT) == APPB_CT
        assert blocks.to_bytes(
            aes_encrypt_blocks_reference(APPB_KEY, blocks.from_bytes(APPB_PT))
        ) == APPB_CT

    def test_sbox_spot_values(self):
        # S-box corners from the FIPS-197 table.
        assert _SBOX[0x00] == 0x63
        assert _SBOX[0x01] == 0x7C
        assert _SBOX[0x53] == 0xED
        assert _SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(_SBOX.tolist()) == list(range(256))


class TestKeySchedule:
    """The reference's key schedule (the shipped one is libcrypto's)."""

    def test_shape(self):
        assert expand_key(FIPS_KEY).shape == (_AES_ROUNDS + 1, 4)

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
        with pytest.raises(ParameterError, match="16 bytes"):
            AES128(b"short")


class TestBatchKernel:
    @given(
        data=KernelStrategies.block_arrays(AES_SIZES),
        key=st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_kernel_matches_word_at_a_time_reference(self, data, key):
        """libcrypto against the numpy reference on contiguous, strided,
        Fortran-order and read-only batches: the input comes back
        untouched and the output is a fresh writable array (the CRHF
        XORs its feed-forward into it in place)."""
        kept = data.copy()
        got = AES128(key).encrypt_blocks(data)
        assert got.dtype == np.uint64 and got.shape == data.shape
        assert got.flags.writeable and got.flags.c_contiguous
        assert np.array_equal(got, aes_encrypt_blocks_reference(key, data))
        assert np.array_equal(data, kept)
        assert not np.shares_memory(got, data)

    def test_batches_past_one_library_call_are_split(self, rng, monkeypatch):
        """``EVP_EncryptUpdate`` takes an int length, so a batch over
        ``UPDATE_BLOCKS`` goes through in slices; shrunk here to 3."""
        monkeypatch.setattr(aes, "UPDATE_BLOCKS", 3)
        data = blocks.random_blocks(10, rng)
        got = AES128(FIPS_KEY).encrypt_blocks(data)
        assert np.array_equal(got, aes_encrypt_blocks_reference(FIPS_KEY, data))

    @pytest.mark.parametrize("n", [1, 42, 4096])
    def test_out_receives_the_ciphertext(self, rng, n):
        """Into a caller's buffer, or in place over the input."""
        data = blocks.random_blocks(n, rng)
        want = aes_encrypt_blocks_reference(FIPS_KEY, data)
        out = np.empty_like(data)
        assert AES128(FIPS_KEY).encrypt_blocks(data, out=out) is out
        assert np.array_equal(out, want)
        assert AES128(FIPS_KEY).encrypt_blocks(data, out=data) is data
        assert np.array_equal(data, want)

    @pytest.mark.parametrize(
        "out",
        [blocks.zeros(3), blocks.zeros(8)[::2], np.zeros((4, 2), dtype=np.uint32)],
        ids=["short", "strided", "uint32"],
    )
    def test_out_must_be_a_contiguous_block_array_of_the_batch(self, rng, out):
        with pytest.raises(ParameterError, match="out must be a C-contiguous"):
            AES128(FIPS_KEY).encrypt_blocks(blocks.random_blocks(4, rng), out=out)

    def test_rejects_what_is_not_a_block_array(self):
        with pytest.raises(ParameterError):
            AES128(FIPS_KEY).encrypt_blocks(np.zeros(4, dtype=np.uint64))

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


class TestContexts:
    """Every thread keys its own cipher context per instance, since
    ctypes drops the GIL for the library call."""

    def test_each_thread_gets_its_own_context(self):
        cipher = AES128(FIPS_KEY)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(cipher._context()))
        thread.start()
        thread.join()
        assert seen[0] is not cipher._context()

    def test_short_lived_threads_free_their_contexts(self, rng):
        cipher = AES128(FIPS_KEY)
        data = blocks.random_blocks(4, rng)
        refs = []

        def work():
            cipher.encrypt_blocks(data)
            refs.append(weakref.ref(cipher._context()))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gc.collect()
        assert len(refs) == 8
        assert all(ref() is None for ref in refs)
        assert cipher._context() is not None  # the caller's own one lives on

    def test_a_collected_instance_frees_its_contexts(self):
        cipher = AES128(FIPS_KEY)
        ref = weakref.ref(cipher._context())
        del cipher
        gc.collect()
        assert ref() is None
