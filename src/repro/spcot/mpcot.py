"""Multi-point COT: t parallel SPCOT instances with regular noise.

Ferret's LPN step needs a length-n one-hot-union vector with exactly t
set positions, distributed regularly: position ``i`` of block ``b``
(blocks partition [0, n) evenly) carries the b-th SPCOT's puncture.
Each block is covered by one GGM tree whose leaf count is the smallest
power of the arity that fits the block.  The trees are pruned: each
same-depth run keeps the first ``max(block sizes)`` leaves of its trees
(public, from ``n`` and ``t``), and the leaves past them -- and every
node with only such leaves below it -- are never computed, by either
party (:func:`repro.spcot.ggm.pruned_widths`).  At the ledger's scale
that is 2 727 of 4 096 leaves per tree and a third fewer PRG calls.

The t trees are independent, which is exactly the inter-tree
parallelism Ironman's hybrid expansion schedule exploits (Figure 8).
Same-depth trees are grouped into contiguous runs (regular noise makes
the block sizes differ by at most one, so there are at most two runs
per execution) and each run is **one** one-shot SPCOT
(:func:`repro.spcot.protocol.spcot_send_batch`): every GGM level's OTs
of every tree of the run travel in a single exchange, so one execution
costs one channel round trip per run, independent of t, depth and
arity, and the GGM work is t-wide vectorized kernels.  Outputs and COT
consumption are bit-for-bit those of running full trees one by one,
level by level (that reference lives in ``tests/oracles.py``); the PRG
core calls are fewer, exactly :func:`mpcot_prg_calls`.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from repro.crypto import blocks
from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.crypto.prg import TreePrg, calls_per_node, pruned_expansion_calls
from repro.errors import ParameterError
from repro.ot.channel import Channel
from repro.ot.cot import CotPool
from repro.spcot.ggm import LevelBuffers
from repro.spcot.protocol import cots_needed, spcot_receive_batch, spcot_send_batch
from repro.utils.bitops import next_power

#: Tweak-space stride reserved per tree (holds all of its level tweaks).
_TREE_TWEAK_STRIDE = 1 << 20


def block_sizes(n: int, t: int) -> list:
    """Regular-noise block sizes: an even split of [0, n) into t blocks."""
    if t < 1 or n < t:
        raise ParameterError(f"need n >= t >= 1, got n={n}, t={t}")
    base = n // t
    rem = n % t
    return [base + 1 if b < rem else base for b in range(t)]


def tree_depth_for(block_size: int, arity: int) -> int:
    """GGM depth so that arity**depth >= block_size (>= 1 level)."""
    leaves = max(next_power(block_size, arity), arity)
    depth = 0
    while arity**depth < leaves:
        depth += 1
    return max(depth, 1)


def mpcot_cots_needed(n: int, t: int, arity: int) -> int:
    """Total base COTs consumed by one multi-point execution."""
    return mpcot_plan(n, t, arity).cots


def mpcot_prg_calls(n: int, t: int, arity: int, prg_kind: str) -> tuple:
    """``(sender, receiver)`` tree-PRG core calls of one execution.

    Each tree of a same-depth run expands only the nodes above the run's
    kept leaves (:func:`repro.crypto.prg.pruned_expansion_calls`).  The
    receiver never expands a root -- it learns level 1 from the sums --
    so its count is the sender's minus ``t`` root expansions (``t``
    calls for ChaCha at arity <= 4).  Key-tree PRG calls are not counted.
    """
    sender = sum(
        count * pruned_expansion_calls(kept, arity**depth, arity, prg_kind)
        for _, count, depth, kept, _ in mpcot_plan(n, t, arity).runs
    )
    return sender, sender - t * calls_per_node(arity, prg_kind)


def sample_alphas(n: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """Sample one puncture position per regular block (local offsets)."""
    return np.array(
        [rng.integers(0, size) for size in block_sizes(n, t)], dtype=np.int64
    )


def depth_runs(sizes: list, arity: int) -> list:
    """Group trees into contiguous runs of equal GGM depth.

    Returns ``(first_tree, n_trees, depth)`` triples.  Regular noise
    splits [0, n) into blocks whose sizes differ by at most one, with
    the larger blocks first, so there are at most two runs -- each is
    one one-shot SPCOT.
    """
    runs = []
    for idx, size in enumerate(sizes):
        depth = tree_depth_for(size, arity)
        if runs and runs[-1][2] == depth:
            runs[-1][1] += 1
        else:
            runs.append([idx, 1, depth])
    return [tuple(r) for r in runs]


class MpcotPlan(NamedTuple):
    """Shared sender/receiver plan of one execution (:func:`mpcot_plan`)."""

    #: regular-noise block sizes, one per tree.
    sizes: tuple
    #: ``offsets[i]`` is tree i's start in the length-n output.
    offsets: tuple
    #: ``(first, count, depth, kept, tweak_bases)`` per same-depth run.
    runs: tuple
    #: base COTs the execution consumes.
    cots: int


@functools.lru_cache(maxsize=32)
def mpcot_plan(n: int, t: int, arity: int) -> MpcotPlan:
    """The tree shapes and tweak schedule of every execution at ``(n, t,
    arity)``, derived once: ``kept`` is each run's largest block, the
    leaves each of its trees is pruned to.  Both parties must derive the
    identical tree shapes and per-tree tweak schedule from this single
    place -- a desync would silently garble the OT pads or the level
    sums.  The cached tweak arrays are read-only.
    """
    sizes = block_sizes(n, t)
    runs = []
    for first, count, depth in depth_runs(sizes, arity):
        tweak_bases = np.arange(first, first + count, dtype=np.uint64) * np.uint64(
            _TREE_TWEAK_STRIDE
        )
        tweak_bases.flags.writeable = False
        runs.append((first, count, depth, max(sizes[first : first + count]), tweak_bases))
    return MpcotPlan(
        sizes=tuple(sizes),
        offsets=tuple(itertools.accumulate(sizes, initial=0)),
        runs=tuple(runs),
        cots=sum(
            count * cots_needed(arity**depth, arity) for _, count, depth, _, _ in runs
        ),
    )


def mpcot_buffers(prg: TreePrg, n: int, t: int) -> LevelBuffers:
    """GGM level buffers that every execution at ``(n, t, prg.arity)``
    expands in, on either side: reused, they spare each execution its
    level-sized allocations."""
    runs = mpcot_plan(n, t, prg.arity).runs
    return LevelBuffers(prg, [(count, depth, kept) for _, count, depth, kept, _ in runs])


def mpcot_send(
    channel: Channel,
    pool: CotPool,
    delta: np.ndarray,
    prg: TreePrg,
    n: int,
    t: int,
    rng: np.random.Generator,
    crhf: Crhf = DEFAULT_CRHF,
    buffers: LevelBuffers = None,
) -> np.ndarray:
    """Sender side: returns the length-n block vector ``w``, a fresh
    array; ``buffers`` (from :func:`mpcot_buffers`) hold the trees."""
    sizes, offsets, runs, _ = mpcot_plan(n, t, prg.arity)
    out = np.empty((n, 2), dtype=blocks.BLOCK_DTYPE)  # the blocks tile [0, n)
    for first, count, depth, kept, tweak_bases in runs:
        leaves = spcot_send_batch(
            channel, pool, delta, prg, depth, count, rng,
            tweak_bases=tweak_bases, crhf=crhf, kept=kept, buffers=buffers,
        )
        for i in range(count):
            size = sizes[first + i]
            start = offsets[first + i]
            out[start : start + size] = leaves[i, :size]
    return out


def mpcot_receive(
    channel: Channel,
    pool: CotPool,
    alphas: np.ndarray,
    prg: TreePrg,
    n: int,
    t: int,
    crhf: Crhf = DEFAULT_CRHF,
    buffers: LevelBuffers = None,
) -> tuple:
    """Receiver side: returns (u, v) with u one-hot per block.

    ``u`` is the length-n 0/1 noise vector (t set bits at the global
    puncture positions); ``v`` the length-n block vector satisfying
    ``w = v XOR u * Delta``.  Both are fresh arrays; ``buffers`` as for
    :func:`mpcot_send`.
    """
    sizes, offsets, runs, _ = mpcot_plan(n, t, prg.arity)
    alphas = np.asarray(alphas, dtype=np.int64)
    if alphas.shape[0] != t:
        raise ParameterError(f"need {t} puncture positions, got {alphas.shape[0]}")
    for tree_idx, size in enumerate(sizes):
        if not 0 <= alphas[tree_idx] < size:
            raise ParameterError(
                f"alpha[{tree_idx}]={alphas[tree_idx]} outside its block of size {size}"
            )
    u = np.zeros(n, dtype=np.uint8)
    v = np.empty((n, 2), dtype=blocks.BLOCK_DTYPE)  # the blocks tile [0, n)
    for first, count, depth, kept, tweak_bases in runs:
        run_v, _ = spcot_receive_batch(
            channel, pool, alphas[first : first + count], prg, depth,
            tweak_bases=tweak_bases, crhf=crhf, kept=kept, buffers=buffers,
        )
        for i in range(count):
            size = sizes[first + i]
            start = offsets[first + i]
            v[start : start + size] = run_v[i, :size]
            u[start + alphas[first + i]] = 1
    return u, v
