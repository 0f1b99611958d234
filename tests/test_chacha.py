"""ChaCha known-answer (RFC 8439) and structural tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import chacha_core_reference
from strategies import KernelStrategies

from repro.crypto import chacha
from repro.errors import ParameterError

RFC_KEY = bytes(range(32))
RFC_NONCE = bytes.fromhex("000000090000004a00000000")
# RFC 8439 section 2.3.2 serialized keystream block (counter = 1).
RFC_STREAM_HEAD = bytes.fromhex("10f1e7e4d13b5915500fdd1fa32071c4")


class TestKnownAnswers:
    def test_rfc8439_block_head(self):
        out = chacha.chacha20_block(RFC_KEY, 1, RFC_NONCE)
        assert len(out) == 64
        assert out[:16] == RFC_STREAM_HEAD

    def test_rfc8439_block_tail(self):
        out = chacha.chacha20_block(RFC_KEY, 1, RFC_NONCE)
        # RFC 8439 final state words 12 and 15: d19c12b5, 4e3c50a2 (LE).
        assert out[48:52] == bytes.fromhex("b5129cd1")
        assert out[60:64] == bytes.fromhex("a2503c4e")

    def test_counter_changes_output(self):
        a = chacha.chacha20_block(RFC_KEY, 1, RFC_NONCE)
        b = chacha.chacha20_block(RFC_KEY, 2, RFC_NONCE)
        assert a != b

    def test_chacha8_differs_from_chacha20(self):
        a = chacha.chacha8_block(RFC_KEY, 1, RFC_NONCE)
        b = chacha.chacha20_block(RFC_KEY, 1, RFC_NONCE)
        assert a != b


class TestValidation:
    def test_rejects_odd_rounds(self):
        state = np.zeros((1, 16), dtype=np.uint32)
        with pytest.raises(ParameterError):
            chacha.chacha_core(state, 7)

    def test_rejects_bad_state_shape(self):
        with pytest.raises(ParameterError):
            chacha.chacha_core(np.zeros((1, 15), dtype=np.uint32), 8)

    def test_rejects_bad_key_len(self):
        with pytest.raises(ParameterError):
            chacha.chacha_block(b"short", 0, b"\x00" * 12)

    def test_rejects_bad_nonce_len(self):
        with pytest.raises(ParameterError):
            chacha.chacha_block(RFC_KEY, 0, b"\x00" * 8)


class TestBatch:
    def test_batch_matches_singles(self):
        kw = np.arange(3 * 8, dtype=np.uint32).reshape(3, 8)
        nw = np.arange(3 * 3, dtype=np.uint32).reshape(3, 3)
        counters = np.array([0, 1, 2], dtype=np.uint32)
        batch = chacha.chacha_core(chacha.make_states(kw, counters, nw), 8)
        for i in range(3):
            single = chacha.chacha_core(
                chacha.make_states(kw[i : i + 1], counters[i : i + 1], nw[i : i + 1]), 8
            )
            assert np.array_equal(batch[i], single[0])

    @given(
        initial=KernelStrategies.chacha_states(sizes=(1, 7, 28, 1792)),
        rounds=st.sampled_from((8, 12, 20)),
        chunk=st.sampled_from((5, chacha.CHUNK_STATES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_core_matches_word_at_a_time_reference(self, initial, rounds, chunk):
        """The four-lane in-place kernel against the per-word reference,
        on contiguous and strided batches, whole and split into chunks;
        the input comes back untouched."""
        kept = initial.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chacha, "CHUNK_STATES", chunk)
            got = chacha.chacha_core(initial, rounds)
        assert got.dtype == np.uint32 and got.shape == initial.shape
        assert np.array_equal(got, chacha_core_reference(initial, rounds))
        assert np.array_equal(initial, kept)
        assert not np.shares_memory(got, initial)

    def test_empty_batch(self):
        assert chacha.chacha_core(np.zeros((0, 16), dtype=np.uint32), 8).shape == (0, 16)

    def test_keystream_prefix_property(self):
        long = chacha.keystream(RFC_KEY, RFC_NONCE, 200)
        short = chacha.keystream(RFC_KEY, RFC_NONCE, 100)
        assert long[:100] == short

    def test_keystream_length_exact(self):
        assert len(chacha.keystream(RFC_KEY, RFC_NONCE, 65)) == 65

    def test_feedforward_prevents_identity(self):
        # zero key/counter/nonce: the constants make the state nonzero
        # and the feed-forward keeps the output distinct from the input.
        state = chacha.make_states(
            np.zeros((1, 8), dtype=np.uint32),
            np.zeros(1, dtype=np.uint32),
            np.zeros((1, 3), dtype=np.uint32),
        )
        out = chacha.chacha_core(state, 8)
        assert out.any()
        assert not np.array_equal(out, state)

    def test_states_layout(self):
        kw = np.ones((1, 8), dtype=np.uint32)
        nw = np.full((1, 3), 7, dtype=np.uint32)
        state = chacha.make_states(kw, np.array([5], dtype=np.uint32), nw)
        assert np.array_equal(state[0, 0:4], chacha.CONSTANTS)
        assert state[0, 12] == 5
        assert (state[0, 13:16] == 7).all()
