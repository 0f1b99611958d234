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

import numpy as np

from repro.crypto import blocks, chacha
from repro.crypto.aes import AES128
from repro.crypto.chacha import CONSTANTS as CHACHA_CONSTANTS
from repro.crypto.chacha import chacha_core, chacha_permute, make_states
from repro.errors import ParameterError
from repro.utils.bitops import log_base

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

    def expand(
        self, nodes: np.ndarray, level: int, out: np.ndarray = None, state: np.ndarray = None
    ) -> np.ndarray:
        """Expand parents into children.

        Args:
            nodes: ``(..., 2)`` uint64 block array of the ``n`` parent
                values, taken in row-major order; it may be a strided view
                (the first nodes of every tree of a batched level).
            level: tree level of the parents (used as a public tweak).
            out: C-contiguous ``(n * arity, 2)`` block array the children
                are written into; a fresh one when not given.
            state: a buffer from :meth:`state_buffer` for at least ``n``
                parents, overwritten as scratch; one per call when not
                given.  It must belong to this call alone.

        Returns:
            ``out``: children of parent ``i`` occupy rows ``[i * arity,
            (i + 1) * arity)``.
        """
        raise NotImplementedError

    def state_buffer(self, n: int):
        """Scratch :meth:`expand` can reuse for up to ``n`` parents, or
        None when it needs none."""
        return None

    def reset_counter(self) -> None:
        """Zero the core-invocation counter."""
        self.total_calls = 0


def _parents(nodes: np.ndarray) -> np.ndarray:
    if not (
        isinstance(nodes, np.ndarray)
        and nodes.dtype == blocks.BLOCK_DTYPE
        and nodes.ndim >= 2
        and nodes.shape[-1] == 2
    ):
        raise ParameterError(f"nodes must be a (..., 2) uint64 block array, got {nodes!r}")
    return nodes


def _children(out, rows: int) -> np.ndarray:
    if out is None:
        return np.empty((rows, 2), dtype=blocks.BLOCK_DTYPE)
    if not (
        blocks.is_block_array(out) and out.shape[0] == rows and out.flags.c_contiguous
    ):
        raise ParameterError(f"out must be a C-contiguous ({rows}, 2) block array")
    return out


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
    Each cipher encrypts all parents in one call into the state buffer
    (one block per parent), and the feed-forward XOR writes its output
    into slot ``j`` of every parent's children.
    """

    name = "aes"

    def __init__(self, arity: int = 2, master_key: bytes = b"ironman-aes-prg"):
        super().__init__()
        if arity < 2:
            raise ParameterError("tree arity must be >= 2")
        self.arity = arity
        self.calls_per_expand = arity
        self.master_key = master_key
        self._ciphers = [AES128(k) for k in _derive_aes_keys(master_key, arity)]

    def state_buffer(self, n: int) -> np.ndarray:
        """One cipher's output for ``n`` parents."""
        return np.empty((n, 2), dtype=blocks.BLOCK_DTYPE)

    def expand(self, nodes, level, out=None, state=None):
        nodes = np.ascontiguousarray(_parents(nodes)).reshape(-1, 2)
        n = nodes.shape[0]
        out = _children(out, n * self.arity)
        if state is None:
            state = self.state_buffer(n)
        elif not (blocks.is_block_array(state) and state.shape[0] >= n):
            raise ParameterError(f"state must be a block array of at least {n} rows")
        cipher_out = state[:n]
        for j, cipher in enumerate(self._ciphers):
            cipher.encrypt_blocks(nodes, out=cipher_out)
            np.bitwise_xor(cipher_out, nodes, out=out[j :: self.arity])
        self.total_calls += n * self.arity
        return out


class ChaChaTreePrg(TreePrg):
    """m-ary tree PRG from ChaCha (default ChaCha8, as Ironman deploys).

    One core call yields four children; wider arities issue
    ``ceil(arity / 4)`` calls with distinct lane indices.  The parent
    block is replicated into the 256-bit ChaCha key and the (public)
    level / lane indices go into the nonce, so expansion is a pure
    function of (parent value, level) shared by sender and receiver.
    A level's states are built word-major, ``(16, n * calls)``, in the
    state buffer and permuted in place by
    :func:`repro.crypto.chacha.chacha_permute`; the feed-forward adds
    the initial words back, and one transpose writes the kept words
    into the children.  The instance holds no mutable state besides its
    call counter, so threads may share it.
    """

    def __init__(self, arity: int = 4, rounds: int = 8, salt: bytes = b"ironman-chacha"):
        super().__init__()
        if arity < 2:
            raise ParameterError("tree arity must be >= 2")
        self.arity = arity
        self.rounds = rounds
        self.name = f"chacha{rounds}"
        self.calls_per_expand = -(-arity // CHACHA_BLOCKS_PER_CALL)  # ceil division
        # Each state yields 4 candidate children (16 words); the first
        # `arity` children per parent are kept, in order: 4 * arity words.
        self._keep = min(4 * arity, 16)
        salt_words = np.frombuffer(hashlib.sha256(salt).digest()[:16], dtype="<u4")
        self._salt = salt_words.reshape(4, 1)
        # Row groups 0 and 3 of a parent's lanes: the constants; zero
        # counter, level (set per expand), lane index, salt word.
        calls = self.calls_per_expand
        self._ends = np.zeros((2, 4, 1, calls), dtype=np.uint32)  # (group, row, parent, lane)
        self._ends[0] = CHACHA_CONSTANTS[:, None, None]
        self._ends[1, 2] = np.arange(calls)
        self._ends[1, 3] = salt_words[0]

    def _layout(self, n: int) -> tuple:
        """``(width, words)`` of a state buffer for ``n`` parents: the
        ``(16, width)`` states, then the parents' key words and their
        salted copy, ``(2, 4, n)``, then the permutation's scratch when
        the children (``4 * arity`` words per state) are too narrow to
        double as it (arity 2)."""
        width = n * self.calls_per_expand
        scratch = 0 if self._keep == 16 else 16 * min(width, chacha.CHUNK_STATES)
        return width, 16 * width + 8 * n + scratch

    def state_buffer(self, n: int) -> np.ndarray:
        """The states, key words and scratch of ``n`` parents."""
        return np.empty(self._layout(n)[1], dtype=np.uint32)

    def expand(self, nodes, level, out=None, state=None):
        words = _parents(nodes).view(np.uint32)  # (..., 4), strides kept
        n = words.size // 4
        calls = self.calls_per_expand
        width, size = self._layout(n)  # states, parent-major: column p * calls + lane
        out = _children(out, n * self.arity)
        if state is None:
            state = np.empty(size, dtype=np.uint32)
        elif state.dtype != np.uint32 or state.ndim != 1 or state.size < size:
            raise ParameterError(f"state must be a flat uint32 buffer for {n} parents")
        states = state[: 16 * width].reshape(16, width)
        seed, salted = state[16 * width : 16 * width + 8 * n].reshape(2, 4, n)
        children = out.view(np.uint32).reshape(width, self._keep)
        scratch = children.reshape(-1) if self._keep == 16 else state[16 * width + 8 * n : size]
        # Key = seed words || seed words XOR salt (a cheap domain separation
        # that fills the 256-bit key from a 128-bit node value); both are
        # made contiguous once, since the fill and the feed-forward read
        # them.
        seed.reshape((4,) + words.shape[:-1])[...] = words.transpose(-1, *range(words.ndim - 1))
        np.bitwise_xor(seed, self._salt, out=salted)
        ends = self._ends.copy()
        ends[1, 1] = level
        groups = states.reshape(4, 4, n, calls)
        groups[::3] = ends
        groups[1] = seed[:, :, None]
        groups[2] = salted[:, :, None]
        chacha_permute(states, self.rounds, scratch)
        groups[::3] += ends  # the feed-forward
        groups[1] += seed[:, :, None]
        groups[2] += salted[:, :, None]
        children[...] = states[: self._keep].T
        self.total_calls += width
        return out


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


def calls_per_node(arity: int, prg_kind: str) -> int:
    """Core calls to expand one node: ``arity`` for AES, ``ceil(arity/4)``
    for ChaCha."""
    if prg_kind == "aes":
        return arity
    if prg_kind.startswith("chacha"):
        return -(-arity // CHACHA_BLOCKS_PER_CALL)
    raise ParameterError(f"unknown PRG kind {prg_kind!r}")


def expansion_calls(n_leaves: int, arity: int, prg_kind: str) -> int:
    """Closed-form PRG core-call count to expand a tree with ``n_leaves``.

    Matches the paper's accounting (Section 4.1): internal nodes number
    ``(leaves - 1) / (m - 1)``; AES issues ``m`` calls per node, ChaCha
    ``ceil(m / 4)``.  This counts *full* trees, which is what the
    CPU-baseline and hardware models price; the runtime's MPCOT prunes
    each tree to the leaves it keeps and expands
    ``repro.spcot.mpcot.mpcot_prg_calls`` (see
    :func:`pruned_expansion_calls`).
    """
    if n_leaves < 1:
        raise ParameterError("n_leaves must be positive")
    return (n_leaves - 1) // (arity - 1) * calls_per_node(arity, prg_kind)


def pruned_expansion_calls(kept: int, n_leaves: int, arity: int, prg_kind: str) -> int:
    """Core calls to expand only the nodes above the first ``kept`` of a
    tree's ``n_leaves`` leaves (``n_leaves`` a power of ``arity``).

    Level ``i`` of a depth-``d`` tree expands ``ceil(kept / m**(d-i))``
    nodes, at the per-node cost of :func:`expansion_calls`, which this
    equals at ``kept == n_leaves``.
    """
    depth = log_base(n_leaves, arity)
    if not 1 <= kept <= n_leaves:
        raise ParameterError(f"kept leaves {kept} outside [1, {n_leaves}]")
    nodes = sum(-(-kept // arity ** (depth - i)) for i in range(depth))
    return nodes * calls_per_node(arity, prg_kind)
