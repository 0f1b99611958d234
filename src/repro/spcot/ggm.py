"""GGM puncturable-PRF trees (Section 2.3.1 / Figure 3(b) / Figure 6).

A GGM tree expands one seed into ``arity ** depth`` leaves by applying
a length-expanding PRG level by level.  SPCOT's punctured transfer
works on *level sums*: at level ``i`` the sender computes, for each
child-slot ``j`` in ``[0, m)``, the XOR of all level-``i`` nodes whose
index is congruent to ``j`` mod ``m`` (for m = 2 these are the paper's
even/odd sums ``K_0^i, K_1^i``).  A receiver holding, at every level,
all sums except slot ``alpha_i`` can reconstruct every leaf except the
one at position ``alpha`` -- that reconstruction lives here too so the
protocol module stays purely about message flow.

The shipped forms are *batched* (:func:`batched_expand_full`,
:func:`batched_level_sums`, :class:`BatchedTreeLevels`,
:class:`BatchedPuncturedReconstructor`); of the single-tree
primitives only :func:`level_sums` and :func:`alpha_digits` stay here.
The single-tree reference (full expansion and level-by-level punctured
reconstruction) lives in ``tests/oracles.py``.  MPCOT runs t independent
trees, and Ironman's hybrid expansion schedule (Figure 8) gets its
pipeline utilization exactly from that inter-tree parallelism: all t
trees advance level-synchronously, so every PRG expansion operates on
all t trees' nodes of a level at once.  The batched representation
stores one ``(t * nodes_per_tree, 2)`` block array per level
(tree-major: tree ``i`` owns rows ``[i * nodes_per_tree, (i + 1) *
nodes_per_tree)``), which turns the per-level work of all t trees into
single vectorized numpy kernels instead of ``t`` small ones.

The batched forms build a *pruned* forest.  A caller that keeps only
the first ``kept`` leaves of each tree (MPCOT keeps a regular-noise
block, usually not a power of the arity) passes ``kept``, and level
``i`` expands only its first ``p_i = ceil(kept / arity**(depth - i))``
nodes -- the ones with a kept leaf below them (:func:`pruned_widths`).
A level then holds ``arity * p_{i-1}`` computed nodes per tree, always
a multiple of the arity, and its slot sums cover exactly those.  The
surplus nodes are never computed, by either party.  Kept leaves depend
only on their root path, so they equal the full tree's bit for bit.
Without ``kept`` the whole tree is built.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.prg import TreePrg
from repro.errors import ParameterError
from repro.utils.bitops import int_to_digits


def level_sums(nodes: np.ndarray, arity: int) -> np.ndarray:
    """Per-slot XOR sums of one tree level.

    ``nodes`` holds a full level (count divisible by ``arity``); row
    ``j`` of the result is the XOR of all nodes at positions congruent
    to ``j`` mod ``arity`` -- the values offered through the
    (m-1)-out-of-m OT.
    """
    if nodes.shape[0] % arity != 0:
        raise ParameterError("level size must be a multiple of the arity")
    grouped = nodes.reshape(-1, arity, 2)
    return np.bitwise_xor.reduce(grouped, axis=0)


def alpha_digits(alpha: int, arity: int, depth: int) -> list:
    """Big-endian base-``arity`` digits of the punctured index.

    ``digits[0]`` selects the level-1 slot; the hole index composes as
    ``p_i = p_{i-1} * arity + digits[i-1]``.
    """
    if not 0 <= alpha < arity**depth:
        raise ParameterError(f"alpha {alpha} out of range for {arity}^{depth} leaves")
    return list(reversed(int_to_digits(alpha, arity, depth)))


# ---------------------------------------------------------------------------
# Batched multi-tree expansion (Figure 8's inter-tree parallelism)
# ---------------------------------------------------------------------------


def pruned_widths(arity: int, depth: int, kept: int = None) -> list:
    """Per-level node counts ``p_0 .. p_depth`` of a pruned tree.

    ``p_i = ceil(kept / arity**(depth - i))`` is the number of level-``i``
    nodes with one of the first ``kept`` leaves below them; only those
    are expanded.  ``p_0 = 1`` and ``p_depth = kept``; at ``kept =
    arity**depth`` (the default) every level is full.
    """
    if depth < 1:
        raise ParameterError("tree depth must be >= 1")
    if kept is None:
        kept = arity**depth
    if not 1 <= kept <= arity**depth:
        raise ParameterError(f"kept leaves {kept} outside [1, {arity}^{depth}]")
    return [-(-kept // arity ** (depth - i)) for i in range(depth + 1)]


def _expand_prefix(
    prg: TreePrg, nodes: np.ndarray, n_trees: int, count: int, level: int
) -> np.ndarray:
    """Expand the first ``count`` nodes of every tree of a batched level."""
    if nodes.shape[0] != n_trees * count:
        nodes = np.ascontiguousarray(nodes.reshape(n_trees, -1, 2)[:, :count])
        nodes = nodes.reshape(-1, 2)
    return prg.expand(nodes, level)


def batched_expand_full(
    prg: TreePrg, seeds: np.ndarray, depth: int, kept: int = None
) -> list:
    """Expand ``t`` seeds into all computed levels of ``t`` trees at once.

    ``seeds`` is a ``(t, 2)`` block array; ``levels[i]`` holds all trees'
    computed level-``i`` nodes as one ``(t * arity * p_{i-1}, 2)`` array,
    tree-major (see :func:`pruned_widths`; ``kept=None`` builds full
    trees, ``arity**i`` nodes per tree).  Because :meth:`TreePrg.expand`
    places the children of parent ``p`` at rows ``[p * arity, (p + 1) *
    arity)``, tree-major layout is preserved level to level, and every
    computed node equals its full-tree counterpart.
    """
    seeds = blocks.require_blocks(np.ascontiguousarray(seeds), "seeds")
    widths = pruned_widths(prg.arity, depth, kept)
    levels = [seeds]
    for lvl in range(depth):
        levels.append(_expand_prefix(prg, levels[-1], seeds.shape[0], widths[lvl], lvl))
    return levels


#: Elements (32 KB of uint64) per transposed chunk of :func:`tree_xor`.
_XOR_CHUNK = 1 << 12


def tree_xor(per_tree: np.ndarray) -> np.ndarray:
    """XOR of each tree's rows: ``(t, rows, k)`` -> ``(t, k)``.

    Reduces contiguous ``(t, k, rows)`` copies along their last axis:
    numpy's reduce over the middle axis walks ``k``-element inner loops
    and is ~10x slower at the ledger's leaf level (7 x 2 728 blocks).
    The copies go ``_XOR_CHUNK`` elements at a time: a whole-level copy
    (305 KB at that leaf level) is handed back to the OS when freed and
    faults in as fresh pages on every extend, which cost 7 % of an
    extend pair's CPU on a 2-core x86 VM.
    """
    t, rows, k = per_tree.shape
    step = max(1, _XOR_CHUNK // (t * k))
    out = np.zeros((t, k), dtype=per_tree.dtype)
    for start in range(0, rows, step):
        chunk = np.ascontiguousarray(per_tree[:, start : start + step].transpose(0, 2, 1))
        out ^= np.bitwise_xor.reduce(chunk, axis=2)
    return out


def batched_level_sums(nodes: np.ndarray, arity: int, n_trees: int) -> np.ndarray:
    """Per-tree per-slot XOR sums of one batched level, vectorized.

    ``nodes`` is a ``(t * nodes_per_tree, 2)`` tree-major level; the
    result is ``(t, arity, 2)`` where ``out[i, j]`` is tree ``i``'s XOR
    of nodes at positions congruent to ``j`` mod ``arity`` -- one
    :func:`tree_xor` over a 3-d reshape, no Python loop over trees.
    """
    if n_trees < 1:
        raise ParameterError("need at least one tree")
    if nodes.shape[0] % (n_trees * arity) != 0:
        raise ParameterError("level size must be a multiple of n_trees * arity")
    return tree_xor(nodes.reshape(n_trees, -1, arity * 2)).reshape(n_trees, arity, 2)


class BatchedTreeLevels:
    """Sender-side view of ``t`` same-depth trees expanded together.

    Thin convenience over :func:`batched_expand_full` that exposes the
    per-level slot sums and the final per-tree leaf matrix the batched
    SPCOT sender needs.  With ``kept`` given, only the nodes above the
    first ``kept`` leaves of each tree are computed.
    """

    def __init__(self, prg: TreePrg, seeds: np.ndarray, depth: int, kept: int = None):
        self.prg = prg
        self.arity = prg.arity
        self.depth = depth
        self.n_trees = np.ascontiguousarray(seeds).shape[0]
        self.levels = batched_expand_full(prg, seeds, depth, kept)

    def sums(self, level: int) -> np.ndarray:
        """``(t, arity, 2)`` slot sums of level ``level`` (1-based)."""
        if not 1 <= level <= self.depth:
            raise ParameterError(f"level {level} out of range [1, {self.depth}]")
        return batched_level_sums(self.levels[level], self.arity, self.n_trees)

    def leaves(self) -> np.ndarray:
        """The computed leaves as a ``(t, arity * p_{depth-1}, 2)`` per-tree
        matrix; the first ``kept`` columns are the kept leaves."""
        return self.levels[-1].reshape(self.n_trees, -1, 2)


class BatchedPuncturedReconstructor:
    """Receiver-side level-synchronous reconstruction of ``t`` trees.

    The batched analogue of the single-tree reconstructor in
    ``tests/oracles.py``: all trees
    advance one level per :meth:`feed_level` call, carried as a single
    tree-major block array, with the per-tree holes tracked as an index
    vector.  ``digits`` is a ``(t, depth)`` int array of per-tree
    punctured digits (big-endian, as from :func:`alpha_digits`).  With
    ``kept`` given it rebuilds the same pruned forest as
    :class:`BatchedTreeLevels`; every puncture must then lie among the
    kept leaves, so each hole path is among the computed nodes.
    """

    def __init__(self, prg: TreePrg, depth: int, digits: np.ndarray, kept: int = None):
        self.prg = prg
        self.arity = prg.arity
        self.depth = depth
        self.digits = np.asarray(digits, dtype=np.int64)
        if self.digits.ndim != 2 or self.digits.shape[1] != depth:
            raise ParameterError("digits must be a (n_trees, depth) array")
        if self.digits.shape[0] < 1:
            raise ParameterError("need at least one tree")
        if np.any((self.digits < 0) | (self.digits >= self.arity)):
            raise ParameterError(f"digits must lie in [0, {self.arity})")
        self.widths = pruned_widths(self.arity, depth, kept)
        holes = self.digits @ (self.arity ** np.arange(depth - 1, -1, -1, dtype=np.int64))
        if np.any(holes >= self.widths[-1]):
            raise ParameterError(f"punctures must lie among the first {self.widths[-1]} leaves")
        self.n_trees = self.digits.shape[0]
        self.level = 0
        self.nodes = None
        self.holes = None

    def feed_level(self, sums: np.ndarray) -> None:
        """Consume level ``self.level + 1`` from per-tree slot sums.

        Args:
            sums: ``(t, arity, 2)`` array; row ``[i, j]`` is tree ``i``'s
                slot-``j`` sum.  The entry at each tree's punctured digit
                is ignored (the OT never delivers it, so callers may
                leave garbage there).
        """
        m = self.arity
        t = self.n_trees
        sums = np.asarray(sums, dtype=blocks.BLOCK_DTYPE)
        if sums.shape != (t, m, 2):
            raise ParameterError(f"sums must have shape ({t}, {m}, 2), got {sums.shape}")
        if self.level >= self.depth:
            raise ParameterError("all levels have already been fed")
        digit = self.digits[:, self.level]
        tree_ids = np.arange(t)
        if self.level == 0:
            nodes = sums.reshape(t * m, 2).copy()
            nodes[tree_ids * m + digit] = 0
            self.nodes = nodes
            self.holes = digit.copy()
        else:
            per_tree = self.widths[self.level]
            children = _expand_prefix(self.prg, self.nodes, t, per_tree, self.level)
            # Each hole parent expanded a zero stand-in; blank its children
            # so the vectorized slot sums below cover only known nodes.
            hole_parents = tree_ids * per_tree + self.holes
            child_rows = hole_parents[:, None] * m + np.arange(m)[None, :]
            children[child_rows.ravel()] = 0
            partial = batched_level_sums(children, m, t)
            children[child_rows.ravel()] = blocks.xor(sums, partial).reshape(t * m, 2)
            children[hole_parents * m + digit] = 0
            self.nodes = children
            self.holes = self.holes * m + digit
        self.level += 1

    @property
    def done(self) -> bool:
        return self.level == self.depth

    def leaves(self) -> tuple:
        """Return ``((t, leaves, 2)`` per-tree leaves, ``(t,)`` holes).

        ``leaves`` counts the computed leaves, as
        :meth:`BatchedTreeLevels.leaves`.  Each tree's hole leaf is
        zero-filled, exactly like the single-tree reconstructor.
        """
        if not self.done:
            raise ParameterError("tree reconstruction is not finished")
        return self.nodes.reshape(self.n_trees, -1, 2), self.holes
