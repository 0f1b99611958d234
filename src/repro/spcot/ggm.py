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

Each party's role is one function over a whole *batched* forest: the
sender's :func:`expand_forest` makes every level's slot sums and the
leaves, and the receiver's :func:`reconstruct_forest` takes all those
sums at once (SPCOT delivers them in one message) and rebuilds every
leaf but the holes.  Of the single-tree primitives only
:func:`level_sums` and :func:`alpha_digits` stay here; the single-tree
reference (full expansion and level-by-level punctured reconstruction)
lives in ``tests/oracles.py``.  MPCOT runs t independent
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

A caller that expands forests of the same shapes over and over (a
Ferret endpoint, once per extend) passes :class:`LevelBuffers`: level
``i`` is then written into buffer ``i % 2`` and expanded straight from
there into the other, reading each tree's prefix in place, so no
level-sized array is allocated.  The sender takes each level's slot
sums as the level is made, and the receiver needs only the level it
expands from, so two buffers hold either party's forest.
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


class LevelBuffers:
    """Reusable storage for expanding batched GGM levels.

    Sized once for a set of forests, each ``(n_trees, depth, kept)``:
    two node buffers (level ``i`` of any of them lives in buffer ``i %
    2``, so each buffer is as long as the longest level of its parity)
    and the PRG's state buffer for the widest expansion.  Arrays handed
    out are views into it, valid until the next expansion through the
    same buffers; one user at a time.
    """

    def __init__(self, prg: TreePrg, forests):
        rows, parents = [0, 0], 0
        for n_trees, depth, kept in forests:
            widths = pruned_widths(prg.arity, depth, kept)
            for lvl in range(1, depth + 1):
                rows[lvl % 2] = max(rows[lvl % 2], n_trees * prg.arity * widths[lvl - 1])
            parents = max(parents, n_trees * widths[depth - 1])
        self._levels = tuple(np.empty((r, 2), dtype=blocks.BLOCK_DTYPE) for r in rows)
        self.state = prg.state_buffer(parents)

    def level(self, index: int, rows: int) -> np.ndarray:
        """The first ``rows`` rows of level ``index``'s buffer."""
        buf = self._levels[index % 2]
        if rows > buf.shape[0]:
            raise ParameterError(
                f"level {index} needs {rows} rows, the buffer holds {buf.shape[0]}"
            )
        return buf[:rows]


def _expand_prefix(
    prg: TreePrg,
    nodes: np.ndarray,
    n_trees: int,
    count: int,
    level: int,
    buffers: LevelBuffers = None,
) -> np.ndarray:
    """Expand the first ``count`` nodes of every tree of a batched level;
    into ``buffers``' next level when given.  The PRG reads the prefixes
    in place."""
    parents = nodes.reshape(n_trees, -1, 2)[:, :count]
    if buffers is None:
        return prg.expand(parents, level)
    out = buffers.level(level + 1, n_trees * count * prg.arity)
    return prg.expand(parents, level, out=out, state=buffers.state)


def expand_forest(
    prg: TreePrg,
    seeds: np.ndarray,
    depth: int,
    kept: int = None,
    buffers: LevelBuffers = None,
) -> tuple:
    """The sender's view of ``t`` same-depth trees expanded together.

    Returns ``(sums, leaves)``: the ``(depth, t, arity, 2)`` slot sums of
    levels 1 .. ``depth``, each taken as its level is made, and the
    computed leaves as a ``(t, arity * p_{depth-1}, 2)`` per-tree matrix
    whose first ``kept`` columns are the kept leaves.  Level ``i`` holds
    all trees' computed nodes as one ``(t * arity * p_{i-1}, 2)`` array,
    tree-major (see :func:`pruned_widths`): :meth:`TreePrg.expand`
    places the children of parent ``p`` at rows ``[p * arity, (p + 1) *
    arity)``, so the layout is preserved level to level and every
    computed node equals its full-tree counterpart.  With ``buffers``
    the leaves are a view into them.
    """
    seeds = blocks.require_blocks(np.ascontiguousarray(seeds), "seeds")
    t = seeds.shape[0]
    widths = pruned_widths(prg.arity, depth, kept)
    sums = np.empty((depth, t, prg.arity, 2), dtype=blocks.BLOCK_DTYPE)
    nodes = seeds
    for lvl in range(depth):
        nodes = _expand_prefix(prg, nodes, t, widths[lvl], lvl, buffers)
        sums[lvl] = batched_level_sums(nodes, prg.arity, t)
    return sums, nodes.reshape(t, -1, 2)


def reconstruct_forest(
    prg: TreePrg,
    digits: np.ndarray,
    sums: np.ndarray,
    kept: int = None,
    buffers: LevelBuffers = None,
) -> tuple:
    """The receiver's view of ``t`` punctured trees, the mirror of
    :func:`expand_forest`.

    ``digits`` is the ``(t, depth)`` array of per-tree punctured digits
    (big-endian, as from :func:`alpha_digits`) and ``sums`` the ``(depth,
    t, arity, 2)`` slot sums of levels 1 .. ``depth``; the entry at each
    tree's punctured digit is ignored (the OT never delivers it, so it
    may hold garbage).  Returns ``(leaves, holes)``: the computed leaves
    shaped as :func:`expand_forest`'s, each tree's hole leaf zero-filled,
    and the ``(t,)`` hole indices.  With ``kept`` every puncture must lie
    among the kept leaves, so each hole path is computed.  With
    ``buffers`` every level past the first is expanded in them.
    """
    m = prg.arity
    digits = np.asarray(digits, dtype=np.int64)
    sums = np.asarray(sums, dtype=blocks.BLOCK_DTYPE)
    if digits.ndim != 2 or digits.shape[0] < 1:
        raise ParameterError("digits must be a (n_trees, depth) array")
    t, depth = digits.shape
    if sums.shape != (depth, t, m, 2):
        raise ParameterError(f"sums must have shape {(depth, t, m, 2)}, got {sums.shape}")
    if np.any((digits < 0) | (digits >= m)):
        raise ParameterError(f"digits must lie in [0, {m})")
    widths = pruned_widths(m, depth, kept)
    if np.any(digits @ (m ** np.arange(depth - 1, -1, -1, dtype=np.int64)) >= widths[-1]):
        raise ParameterError(f"punctures must lie among the first {widths[-1]} leaves")
    tree_ids = np.arange(t)
    holes = digits[:, 0].copy()
    nodes = sums[0].reshape(t * m, 2).copy()
    nodes[tree_ids * m + holes] = 0
    for lvl in range(1, depth):
        children = _expand_prefix(prg, nodes, t, widths[lvl], lvl, buffers)
        # Each hole parent expanded a zero stand-in; blank its children
        # so the vectorized slot sums below cover only known nodes.
        hole_parents = tree_ids * widths[lvl] + holes
        child_rows = (hole_parents[:, None] * m + np.arange(m)).ravel()
        children[child_rows] = 0
        partial = batched_level_sums(children, m, t)
        children[child_rows] = blocks.xor(sums[lvl], partial).reshape(t * m, 2)
        children[hole_parents * m + digits[:, lvl]] = 0
        nodes = children
        holes = holes * m + digits[:, lvl]
    return nodes.reshape(t, -1, 2), holes


#: Elements (32 KB of uint64) per transposed chunk of :func:`tree_xor`.
_XOR_CHUNK = 1 << 12


def tree_xor(per_tree: np.ndarray) -> np.ndarray:
    """XOR of each tree's rows: ``(t, rows, k)`` -> ``(t, k)``.

    Reduces contiguous ``(t, k, rows)`` copies along their last axis:
    numpy's reduce over the middle axis walks ``k``-element inner loops
    and is ~10x slower at the ledger's leaf level (7 x 2 728 blocks).
    The copies go ``_XOR_CHUNK`` elements at a time.  A whole-level copy
    (305 KB at that leaf level) is a fresh allocation per call that the
    allocator may hand back to the OS when freed: measured per party per
    extend at the ledger's shape on a 2-core x86 VM, with the levels in
    an endpoint's reused buffers, whole-level copies faulted in up to
    ~120 fresh pages on some extends, where the 32 KB chunks, reused
    from the allocator's free lists, faulted in at most one.
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
