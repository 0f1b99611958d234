"""The SPCOT sub-protocol (Single-Point Correlated OT, Section 2.3.1),
including the paper's m-ary variant with (m-1)-out-of-m OT (Section 4.2).

One SPCOT instance gives the sender a vector ``w`` of ``l`` blocks and
the receiver a secret position ``alpha`` plus a vector ``v`` such that

    w = v XOR u * Delta,        u = one-hot(alpha)

The sender expands a random seed into a GGM tree and, per level, offers
the slot sums of that level; the receiver learns every sum except the
one at alpha's digit, reconstructs every leaf except alpha, and closes
the hole with ``psi = Delta XOR (XOR of all leaves)``.  A binary level
is one 1-out-of-2 OT (derandomized from one pooled base COT).  An m-ary
level needs an (m-1)-out-of-m OT: following Section 4.2 it is built
from an m-leaf binary GGM "key tree" whose punctured transfer (log2(m)
base COTs) hands the receiver every key ``q_j`` except ``q_{alpha_i}``,
and the sender broadcasts the sums masked as ``K_j XOR H(q_j)``.

:func:`spcot_send_batch` / :func:`spcot_receive_batch` run ``t``
same-depth instances in **one shot**.  Nothing a level's OT carries
depends on an earlier level's answer: the receiver's choice bits are
the complemented digits of ``alpha``, known before the first message,
and the sender's sums and key trees depend on its own seeds only.  So
all ``t * depth * log2(m)`` OTs run as one batch (Ferret's SPCOT does
the same):

1. receiver -> sender: one correction-bit vector for every OT;
2. sender -> receiver: the two padded OT vectors, then every level's
   masked sums followed by the ``t`` psi blocks as one message;
3. the receiver un-pads once, rebuilds all key trees together, unmasks
   every level's sums with one CRHF pass and expands its ``t`` trees
   locally, with no channel in between.

That is one round trip and one tweaked-AES pass per party per run,
whatever the depth, arity or ``t``.  Pooled COTs are consumed in
(level, key-tree level, tree) order and every OT and mask keeps its own
tweak (per-tree base + per-level stride + key-tree level / slot), the
schedule of the per-tree reference in ``tests/oracles.py``, whose
outputs this path reproduces bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.crypto.prg import ChaChaTreePrg, TreePrg
from repro.errors import ParameterError, ProtocolError
from repro.ot.channel import Channel
from repro.ot.cot import CotPool
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot
from repro.spcot.ggm import (
    BatchedPuncturedReconstructor,
    BatchedTreeLevels,
    alpha_digits,
    batched_expand_full,
    batched_level_sums,
)
from repro.utils.bitops import log_base

#: Binary PRG shared by both parties for the (m-1)-out-of-m key trees.
#: Deterministic module-level construction keeps sender/receiver in sync.
_KEY_TREE_PRG = ChaChaTreePrg(arity=2, rounds=8, salt=b"ironman-key-tree")

#: Tweak-space stride reserved per SPCOT level (OT pads + masked sums).
_LEVEL_TWEAK_STRIDE = 64

#: Offset of a level's ``arity`` mask tweaks inside its stride (the OT
#: pads of its key-tree levels sit below it).
_MASK_TWEAK_OFFSET = 32


def cots_needed(n_leaves: int, arity: int) -> int:
    """Base COTs one SPCOT execution consumes: log2 of the leaf count.

    Binary levels use one COT each; an m-ary level's key tree uses
    log2(m) -- the total is log2(l) either way (Section 4.2: sublinear
    OT-correlation consumption is preserved).
    """
    depth = log_base(n_leaves, arity)
    bits_per_level = log_base(arity, 2)
    return depth * bits_per_level


def _key_tree_depth(arity: int) -> int:
    depth = log_base(arity, 2)
    if depth < 1:
        raise ParameterError("m-ary SPCOT needs arity to be a power of two >= 2")
    return depth


def _resolve_tweak_bases(tweak_bases, n_trees: int) -> np.ndarray:
    if tweak_bases is None:
        return np.zeros(n_trees, dtype=np.uint64)
    tweak_bases = np.asarray(tweak_bases, dtype=np.uint64)
    if tweak_bases.shape != (n_trees,):
        raise ParameterError(
            f"tweak_bases must have shape ({n_trees},), got {tweak_bases.shape}"
        )
    return tweak_bases


def _batch_seeds(
    rng: np.random.Generator, n_trees: int, depth: int, arity: int
) -> tuple:
    """Draw (main seeds, key-tree seeds) for a batch of trees.

    Randomness is consumed tree-major (main seed, then one key-tree
    seed per level), the order a tree-by-tree run draws it in.  The
    key-tree seeds come back level-major, ``(depth * n_trees, 2)``,
    matching the COT order.
    """
    if arity == 2:
        return blocks.random_blocks(n_trees, rng), None
    raw = blocks.random_blocks(n_trees * (1 + depth), rng).reshape(n_trees, 1 + depth, 2)
    kt_seeds = raw[:, 1:].transpose(1, 0, 2).reshape(depth * n_trees, 2)
    return np.ascontiguousarray(raw[:, 0]), kt_seeds


def _ot_tweaks(tweak_bases: np.ndarray, depth: int, arity: int) -> tuple:
    """Shared sender/receiver tweak schedule of one run.

    Returns ``(level_tweaks, ot_tweaks)``: the ``(depth, t)`` per-(level,
    tree) bases and the flat per-OT tweak vector in COT order -- (level,
    tree) for binary trees, (level, key-tree level, tree) otherwise.
    """
    strides = np.arange(1, depth + 1, dtype=np.uint64) * np.uint64(_LEVEL_TWEAK_STRIDE)
    level_tweaks = tweak_bases[None, :] + strides[:, None]
    if arity == 2:
        return level_tweaks, level_tweaks.ravel()
    kt_levels = np.arange(1, _key_tree_depth(arity) + 1, dtype=np.uint64)
    return level_tweaks, (level_tweaks[:, None, :] + kt_levels[None, :, None]).ravel()


def _mask_tweaks(level_tweaks: np.ndarray, arity: int) -> np.ndarray:
    """Flat (level, tree, slot) tweaks of the masked slot sums."""
    slots = np.arange(arity, dtype=np.uint64) + np.uint64(_MASK_TWEAK_OFFSET)
    return (level_tweaks[:, :, None] + slots).ravel()


def spcot_send_batch(
    channel: Channel,
    pool: CotPool,
    delta: np.ndarray,
    prg: TreePrg,
    depth: int,
    n_trees: int,
    rng: np.random.Generator,
    tweak_bases: np.ndarray = None,
    crhf: Crhf = DEFAULT_CRHF,
) -> np.ndarray:
    """Run ``n_trees`` same-depth SPCOT instances in one shot.

    Expands every tree (and, for arity > 2, every level's key tree),
    takes all ``n_trees * depth * log2(arity)`` pooled COTs at once and
    answers the receiver's single correction-bit message with one
    flight: the batched OT's two vectors, then the masked sums of every
    level followed by the psi blocks.  Returns the per-tree leaf matrix
    ``(n_trees, arity**depth, 2)``.
    """
    m = prg.arity
    t = n_trees
    if t < 1:
        raise ParameterError("need at least one tree")
    tweak_bases = _resolve_tweak_bases(tweak_bases, t)
    seeds, kt_seeds = _batch_seeds(rng, t, depth, m)
    trees = BatchedTreeLevels(prg, seeds, depth)
    sums = np.stack([trees.sums(lvl) for lvl in range(1, depth + 1)])  # (depth, t, m, 2)
    level_tweaks, ot_tweaks = _ot_tweaks(tweak_bases, depth, m)
    leaves = trees.leaves()  # (t, l, 2)
    reply = blocks.xor(delta, np.bitwise_xor.reduce(leaves, axis=1))  # psi, (t, 2)
    if m == 2:
        offers = sums
    else:
        kt_depth = _key_tree_depth(m)
        kt_levels = batched_expand_full(_KEY_TREE_PRG, kt_seeds, kt_depth)
        # (depth, kt_depth, t, 2, 2): the key trees' even/odd sums in COT order.
        offers = np.stack(
            [
                batched_level_sums(kt_levels[kt], 2, depth * t).reshape(depth, t, 2, 2)
                for kt in range(1, kt_depth + 1)
            ],
            axis=1,
        )
        keys = kt_levels[-1]  # (depth * t * m, 2) one-time keys q_j, (level, tree, slot)
        masked = blocks.xor(
            sums.reshape(-1, 2), crhf.hash_tweaked(keys, _mask_tweaks(level_tweaks, m))
        )
        reply = np.concatenate([masked, reply])
    offers = offers.reshape(-1, 2, 2)
    cots = pool.take_sender(offers.shape[0])
    ot_send_from_cot(channel, cots, offers[:, 0], offers[:, 1], tweaks=ot_tweaks, crhf=crhf)
    channel.send_blocks(reply)
    return leaves


def spcot_receive_batch(
    channel: Channel,
    pool: CotPool,
    alphas: np.ndarray,
    prg: TreePrg,
    depth: int,
    tweak_bases: np.ndarray = None,
    crhf: Crhf = DEFAULT_CRHF,
) -> tuple:
    """Receiver side of :func:`spcot_send_batch`.

    Returns ``(v, holes)``: the per-tree vectors ``(t, arity**depth, 2)``
    with each tree's alpha slot fixed up, and the per-tree hole indices.
    A reply of the wrong length raises :class:`ProtocolError`.
    """
    m = prg.arity
    alphas = np.asarray(alphas, dtype=np.int64)
    t = alphas.shape[0]
    if t < 1:
        raise ParameterError("need at least one tree")
    tweak_bases = _resolve_tweak_bases(tweak_bases, t)
    digits = np.array([alpha_digits(int(a), m, depth) for a in alphas], dtype=np.int64)
    level_tweaks, ot_tweaks = _ot_tweaks(tweak_bases, depth, m)
    if m == 2:
        ot_digits = digits.T  # (depth, t): the slot each OT must not reveal
    else:
        kt_depth = _key_tree_depth(m)
        # Big-endian bits of every level digit, (depth, t, kt_depth).
        kt_digits = (digits.T[:, :, None] >> np.arange(kt_depth - 1, -1, -1)) & 1
        ot_digits = kt_digits.transpose(0, 2, 1)  # (depth, kt_depth, t)
    n_ots = ot_digits.size
    choices = (1 - ot_digits).astype(np.uint8).ravel()
    known = ot_receive_from_cot(
        channel, pool.take_receiver(n_ots), choices, tweaks=ot_tweaks, crhf=crhf
    )
    reply = channel.recv_blocks()
    n_masked = 0 if m == 2 else depth * t * m
    if reply.shape[0] != n_masked + t:
        raise ProtocolError(
            f"masked sums / psi reply has {reply.shape[0]} blocks, expected {n_masked + t}"
        )
    # One offered pair per OT with only the chosen side filled in; the
    # reconstructors ignore the entry at each punctured digit.
    pairs = np.zeros((n_ots, 2, 2), dtype=blocks.BLOCK_DTYPE)
    pairs[np.arange(n_ots), choices] = known
    if m == 2:
        sums = pairs.reshape(depth, t, 2, 2)
    else:
        kt_recon = BatchedPuncturedReconstructor(
            _KEY_TREE_PRG, kt_depth, kt_digits.reshape(depth * t, kt_depth)
        )
        pairs = pairs.reshape(depth, kt_depth, t, 2, 2)
        for kt in range(kt_depth):
            kt_recon.feed_level(pairs[:, kt].reshape(depth * t, 2, 2))
        keys, _ = kt_recon.leaves()  # (depth * t, m, 2); hole keys are zero
        # Each tree's punctured slot unmasks with a zero key and is garbage.
        sums = blocks.xor(
            reply[:n_masked],
            crhf.hash_tweaked(keys.reshape(-1, 2), _mask_tweaks(level_tweaks, m)),
        ).reshape(depth, t, m, 2)
    recon = BatchedPuncturedReconstructor(prg, depth, digits)
    for level_sums in sums:
        recon.feed_level(level_sums)
    v, holes = recon.leaves()
    # Hole slots are zero, so the per-tree reduce covers exactly the
    # known leaves of each tree.
    known_xor = np.bitwise_xor.reduce(v, axis=1)
    v[np.arange(t), holes] = blocks.xor(reply[n_masked:], known_xor)
    return v, holes
