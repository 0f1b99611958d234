"""ChaCha stream-cipher core (ChaCha8 / ChaCha12 / ChaCha20), batch numpy.

Ironman replaces the AES-based PRG with a ChaCha8-based one because a
single ChaCha call outputs 512 bits (four 128-bit blocks), which pairs
naturally with 4-ary GGM-tree expansion (Section 4.1, Table 2).  The
core's built-in feed-forward (initial state added to the permuted
state) provides the one-wayness a GGM PRG needs.

The batch kernel (:func:`chacha_permute`) runs ``n`` independent ChaCha
states in parallel, held word-major as one ``(16, n)`` uint32 array
viewed as four ``(4, n)`` row groups (a, b, c, d), so one quarter-round
call covers four lanes -- ~20 in-place vector ops -- and a whole GGM
level expands without Python-level per-block loops.  The tree PRG
builds its states word-major; :func:`chacha_core` is the state-major
``(n, 16)`` wrapper for the keystream helpers and the RFC tests.  The
word-at-a-time formulation straight from the RFC is the reference in
``tests/oracles.py``.

``chacha20_block`` is pinned to the RFC 8439 test vector by the test
suite; ChaCha8 reuses the identical machinery with 8 rounds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

#: "expand 32-byte k" as four little-endian uint32 constants.
CONSTANTS = np.array([0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32)

_U32 = np.uint32

#: States per processing chunk: state + scratch (~1 MB) stay in L2.
CHUNK_STATES = 1 << 13

#: Row orders that rotate a (4, n) row group up by 1, 2, 3 lanes.
_ROTATE = tuple((np.arange(4) + r) % 4 for r in (1, 2, 3))


#: The quarter round's four rotate-left amounts as (left, right) shift
#: pairs; 0-d arrays, which a ufunc takes ~2x faster than a scalar.
_SHIFTS = tuple((np.array(k, dtype=_U32), np.array(32 - k, dtype=_U32)) for k in (16, 12, 8, 7))


def _quarter_x4(a, b, c, d, tmp) -> None:
    """In-place ChaCha quarter round on four lanes at once."""
    for (x, y, z), (left, right) in zip(((a, b, d), (c, d, b)) * 2, _SHIFTS):
        np.add(x, y, out=x)
        np.bitwise_xor(z, x, out=z)
        np.left_shift(z, left, out=tmp)  # z = rotl(z, k)
        np.right_shift(z, right, out=z)
        np.bitwise_or(z, tmp, out=z)


def _permute(words: np.ndarray, double_rounds: int, scratch: np.ndarray) -> None:
    """Permute one chunk of word-major states, ``(16, n)``, in place;
    ``scratch`` is a C-contiguous ``(16, n)`` buffer it overwrites."""
    n = words.shape[1]
    (a, b, c, d), (b2, c2, d2) = words.reshape(4, 4, n), scratch[:12].reshape(3, 4, n)
    tmp = scratch[12:]
    up1, up2, up3 = _ROTATE
    for _ in range(double_rounds):
        _quarter_x4(a, b, c, d, tmp)
        # Diagonal round: lane i takes words (i, 4 + (i+1)%4, 8 + (i+2)%4,
        # 12 + (i+3)%4), i.e. the b / c / d row groups rotated by 1 / 2 / 3.
        # (The ndarray method skips np.take's dispatch wrapper: ~20 % of
        # a small level's core call.)
        b.take(up1, axis=0, out=b2, mode="clip")
        c.take(up2, axis=0, out=c2, mode="clip")
        d.take(up3, axis=0, out=d2, mode="clip")
        _quarter_x4(a, b2, c2, d2, tmp)
        b2.take(up3, axis=0, out=b, mode="clip")
        c2.take(up2, axis=0, out=c, mode="clip")
        d2.take(up1, axis=0, out=d, mode="clip")


def chacha_permute(words: np.ndarray, rounds: int, scratch: np.ndarray = None) -> None:
    """Run the ChaCha permutation in place on word-major states; the
    caller adds the initial states (the feed-forward) to what it keeps.

    Args:
        words: C-contiguous uint32 array of shape (16, n) -- one ChaCha
            state per column, row ``w`` holding word ``w`` of every state.
        rounds: total round count (8, 12 or 20); must be even.
        scratch: a flat uint32 buffer of at least ``16 * min(n,
            CHUNK_STATES)`` words that the kernel overwrites; allocated
            here when not given.  It must belong to this call alone
            (both parties' threads share PRG instances, see
            ``ChaChaTreePrg``).

    States go through in chunks of :data:`CHUNK_STATES`, so the state and
    scratch of a chunk stay in L2 however wide a GGM level is.
    """
    if rounds % 2 != 0 or rounds <= 0:
        raise ParameterError(f"ChaCha round count must be a positive even number, got {rounds}")
    if words.dtype != np.uint32 or words.ndim != 2 or words.shape[0] != 16:
        raise ParameterError("word-major ChaCha states must be a (16, n) uint32 array")
    if not words.flags.c_contiguous:
        raise ParameterError("word-major ChaCha states must be C-contiguous")
    n = words.shape[1]
    if scratch is None:
        scratch = np.empty(16 * min(n, CHUNK_STATES), dtype=np.uint32)
    for start in range(0, n, CHUNK_STATES):
        chunk = words[:, start : start + CHUNK_STATES]
        _permute(chunk, rounds // 2, scratch[: chunk.size].reshape(16, -1))


def chacha_core(initial: np.ndarray, rounds: int) -> np.ndarray:
    """:func:`chacha_permute` plus feed-forward on state-major batches.

    Args:
        initial: uint32 array of shape (n, 16) -- one ChaCha state per row.
        rounds: total round count (8, 12 or 20); must be even.

    Returns:
        uint32 array (n, 16): permuted states plus the initial states.
    """
    if initial.ndim != 2 or initial.shape[1] != 16:
        raise ParameterError("ChaCha state batch must have shape (n, 16)")
    words = np.array(initial.T, dtype=np.uint32, order="C")
    chacha_permute(words, rounds)
    words += initial.T
    return np.ascontiguousarray(words.T)


def make_states(
    key_words: np.ndarray, counter: np.ndarray, nonce_words: np.ndarray
) -> np.ndarray:
    """Assemble batched ChaCha states: constants | key(8) | counter | nonce(3)."""
    key_words = np.asarray(key_words, dtype=np.uint32)
    nonce_words = np.asarray(nonce_words, dtype=np.uint32)
    if key_words.ndim != 2 or key_words.shape[1] != 8:
        raise ParameterError("key_words must have shape (n, 8)")
    if nonce_words.ndim != 2 or nonce_words.shape[1] != 3:
        raise ParameterError("nonce_words must have shape (n, 3)")
    n = key_words.shape[0]
    state = np.empty((n, 16), dtype=np.uint32)
    state[:, 0:4] = CONSTANTS
    state[:, 4:12] = key_words
    state[:, 12] = np.asarray(counter, dtype=np.uint32)
    state[:, 13:16] = nonce_words
    return state


def chacha_block(key: bytes, counter: int, nonce: bytes, rounds: int = 20) -> bytes:
    """Single-block convenience API (RFC 8439 layout): returns 64 bytes."""
    if len(key) != 32:
        raise ParameterError("ChaCha key must be 32 bytes")
    if len(nonce) != 12:
        raise ParameterError("ChaCha nonce must be 12 bytes")
    kw = np.frombuffer(key, dtype="<u4").reshape(1, 8)
    nw = np.frombuffer(nonce, dtype="<u4").reshape(1, 3)
    state = make_states(kw, np.array([counter], dtype=np.uint32), nw)
    out = chacha_core(state, rounds)
    return out.astype("<u4").tobytes()


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """RFC 8439 ChaCha20 block function (20 rounds)."""
    return chacha_block(key, counter, nonce, rounds=20)


def chacha8_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """ChaCha8 block function (8 rounds), the PRG core Ironman deploys."""
    return chacha_block(key, counter, nonce, rounds=8)


def keystream(key: bytes, nonce: bytes, length: int, rounds: int = 20) -> bytes:
    """Generate ``length`` keystream bytes (counter starting at 0)."""
    n_blocks = (length + 63) // 64
    kw = np.repeat(np.frombuffer(key, dtype="<u4").reshape(1, 8), n_blocks, axis=0)
    nw = np.repeat(np.frombuffer(nonce, dtype="<u4").reshape(1, 3), n_blocks, axis=0)
    counters = np.arange(n_blocks, dtype=np.uint32)
    out = chacha_core(make_states(kw, counters, nw), rounds)
    return out.astype("<u4").tobytes()[:length]
