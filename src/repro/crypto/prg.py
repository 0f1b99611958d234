"""Tree PRGs: the length-expanding generators that drive GGM trees.

The paper contrasts two constructions (Section 4.1, Figure 6):

* **AES-based**: child ``j`` of node ``s`` is ``AES_kj(s) XOR s`` -- one
  AES call per child, so an m-ary expansion costs m calls.
* **ChaCha8-based**: one ChaCha call outputs 512 bits = four children,
  so a 4-ary expansion costs a single call and an m-ary expansion costs
  ``ceil(m / 4)`` calls.

Both are exposed behind :class:`TreePrg`, which also counts core
invocations -- the quantity plotted in Figure 7(a) and fed to the
hardware pipeline model.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro.crypto import blocks
from repro.crypto.aes import AES128
from repro.crypto.chacha import CONSTANTS as CHACHA_CONSTANTS
from repro.crypto.chacha import chacha_core, make_states
from repro.errors import ParameterError

#: Blocks produced per ChaCha core invocation (512-bit output).
CHACHA_BLOCKS_PER_CALL = 4


class TreePrg:
    """Interface for an m-ary length-expanding PRG.

    Subclasses implement :meth:`expand`, mapping ``n`` parent nodes to
    ``n * arity`` children, and report their per-expansion core-call
    cost through :attr:`calls_per_expand`.
    """

    #: number of children produced per parent node.
    arity: int
    #: core invocations (AES encryptions / ChaCha permutations) per parent.
    calls_per_expand: int
    #: short human-readable name ("aes", "chacha8").
    name: str

    def __init__(self):
        self.total_calls = 0

    def expand(self, nodes: np.ndarray, level: int) -> np.ndarray:
        """Expand parents into children.

        Args:
            nodes: (n, 2) block array of parent values.
            level: tree level of the parents (used as a public tweak).

        Returns:
            (n * arity, 2) block array; children of parent ``i`` occupy
            rows ``[i * arity, (i + 1) * arity)``.
        """
        raise NotImplementedError

    def reset_counter(self) -> None:
        """Zero the core-invocation counter."""
        self.total_calls = 0


def _derive_aes_keys(master: bytes, count: int) -> list:
    """Derive ``count`` independent AES keys from a master seed string."""
    keys = []
    for i in range(count):
        digest = hashlib.sha256(master + b"|aes-tree-key|" + i.to_bytes(4, "little"))
        keys.append(digest.digest()[:16])
    return keys


class AesTreePrg(TreePrg):
    """m-ary tree PRG from m fixed-key AES instances (the CPU baseline).

    ``child_j(s) = AES_{k_j}(s) XOR s`` -- the XOR feed-forward makes
    each branch a one-way (Davies-Meyer style) function of the parent.
    """

    name = "aes"

    def __init__(self, arity: int = 2, master_key: bytes = b"ironman-aes-prg"):
        super().__init__()
        if arity < 2:
            raise ParameterError("tree arity must be >= 2")
        self.arity = arity
        self.calls_per_expand = arity
        self._ciphers = [AES128(k) for k in _derive_aes_keys(master_key, arity)]

    def expand(self, nodes: np.ndarray, level: int) -> np.ndarray:
        blocks.require_blocks(nodes, "nodes")
        n = nodes.shape[0]
        out = np.empty((n * self.arity, 2), dtype=blocks.BLOCK_DTYPE)
        for j, cipher in enumerate(self._ciphers):
            out[j :: self.arity] = blocks.xor(cipher.encrypt_blocks(nodes), nodes)
        self.total_calls += n * self.arity
        return out


class ChaChaTreePrg(TreePrg):
    """m-ary tree PRG from ChaCha (default ChaCha8, as Ironman deploys).

    One core call yields four children; wider arities issue
    ``ceil(arity / 4)`` calls with distinct lane indices.  The parent
    block is replicated into the 256-bit ChaCha key and the (public)
    level / lane indices go into the nonce, so expansion is a pure
    function of (parent value, level) shared by sender and receiver.
    """

    def __init__(self, arity: int = 4, rounds: int = 8, salt: bytes = b"ironman-chacha"):
        super().__init__()
        if arity < 2:
            raise ParameterError("tree arity must be >= 2")
        self.arity = arity
        self.rounds = rounds
        self.name = f"chacha{rounds}"
        self.calls_per_expand = -(-arity // CHACHA_BLOCKS_PER_CALL)  # ceil division
        digest = hashlib.sha256(salt).digest()
        self._salt_words = np.frombuffer(digest[:16], dtype="<u4")
        # State schedule, derived once (the AesTreePrg analogue of its
        # cached key schedule): everything in the (n*calls, 16) ChaCha
        # state that does not depend on the parent values or the level --
        # constants, zero counter, lane indices, salt word -- keyed by
        # batch size, since batched GGM levels reuse the same few sizes
        # on every extend.  expand() then only writes key words + level.
        # The template is mutated in place per expand, so the cache must
        # be per-thread: shared instances (e.g. the module-level key-tree
        # PRG in spcot.protocol) are hit concurrently from both parties'
        # worker threads in in-process two-party runs, and a shared
        # template lets one thread rewrite key words while the other is
        # mid-permutation -- silently corrupting a few children.
        self._state_local = threading.local()

    @property
    def _state_cache(self) -> dict:
        cache = getattr(self._state_local, "cache", None)
        if cache is None:
            cache = self._state_local.cache = {}
        return cache

    def _state_template(self, n: int) -> np.ndarray:
        calls = self.calls_per_expand
        state = self._state_cache.get(n)
        if state is None:
            state = np.empty((n * calls, 16), dtype=np.uint32)
            state[:, 0:4] = CHACHA_CONSTANTS
            state[:, 12] = 0  # counter
            state[:, 14] = np.tile(np.arange(calls, dtype=np.uint32), n)  # lane
            state[:, 15] = self._salt_words[0]
            self._state_cache[n] = state
        return state

    def expand(self, nodes: np.ndarray, level: int) -> np.ndarray:
        blocks.require_blocks(nodes, "nodes")
        n = nodes.shape[0]
        calls = self.calls_per_expand
        # Key = seed words || seed words XOR salt (a cheap domain separation
        # that fills the 256-bit key from a 128-bit node value).
        seed_words = blocks.to_uint32(nodes)
        state = self._state_template(n)
        repeated = np.repeat(seed_words, calls, axis=0)
        state[:, 4:8] = repeated
        state[:, 8:12] = repeated ^ self._salt_words
        state[:, 13] = np.uint32(level)
        stream = chacha_core(state, self.rounds)  # (n*calls, 16) uint32
        # Each call row holds 4 candidate children; keep the first `arity`
        # children per parent in order.
        children = stream.reshape(n, calls * CHACHA_BLOCKS_PER_CALL, 4)
        wanted = children[:, : self.arity, :].reshape(-1, 4)
        self.total_calls += n * calls
        return blocks.from_uint32(np.ascontiguousarray(wanted))


#: Nonce of :func:`stream_expand`; the tree PRGs put (level, lane, salt)
#: there, so a seed used for both can never yield the same ChaCha state.
_STREAM_NONCE = np.frombuffer(b"cot-ext-strm", dtype="<u4")


def stream_expand(seeds: np.ndarray, nbytes: int, rounds: int = 8) -> np.ndarray:
    """Stretch every 128-bit seed into ``nbytes`` of ChaCha keystream.

    All seeds and all their counter blocks go through *one* batched core
    call (the IKNP-style base-COT extension expands its 128 seed pairs
    this way).  Returns a (len(seeds), nbytes) uint8 matrix; row ``i``
    depends on ``seeds[i]`` only.
    """
    blocks.require_blocks(seeds, "seeds")
    m = seeds.shape[0]
    per_seed = -(-nbytes // 64)  # 64-byte ChaCha blocks per seed
    key = np.tile(blocks.to_uint32(seeds), (1, 2))  # the seed fills both key halves
    states = make_states(
        np.repeat(key, per_seed, axis=0),
        np.tile(np.arange(per_seed, dtype=np.uint32), m),
        np.broadcast_to(_STREAM_NONCE, (m * per_seed, 3)),
    )
    stream = chacha_core(states, rounds)
    return stream.view(np.uint8).reshape(m, per_seed * 64)[:, :nbytes]


def make_tree_prg(kind: str, arity: int) -> TreePrg:
    """Factory used by configs: ``kind`` in {"aes", "chacha8", "chacha20"}."""
    kind = kind.lower()
    if kind == "aes":
        return AesTreePrg(arity=arity)
    if kind.startswith("chacha"):
        rounds = int(kind[len("chacha") :] or 8)
        return ChaChaTreePrg(arity=arity, rounds=rounds)
    raise ParameterError(f"unknown PRG kind {kind!r}")


def expansion_calls(n_leaves: int, arity: int, prg_kind: str) -> int:
    """Closed-form PRG core-call count to expand a tree with ``n_leaves``.

    Matches the paper's accounting (Section 4.1): internal nodes number
    ``(leaves - 1) / (m - 1)``; AES issues ``m`` calls per node, ChaCha
    ``ceil(m / 4)``.
    """
    if n_leaves < 1:
        raise ParameterError("n_leaves must be positive")
    internal = (n_leaves - 1) // (arity - 1)
    if prg_kind == "aes":
        per_node = arity
    elif prg_kind.startswith("chacha"):
        per_node = -(-arity // CHACHA_BLOCKS_PER_CALL)
    else:
        raise ParameterError(f"unknown PRG kind {prg_kind!r}")
    return internal * per_node
