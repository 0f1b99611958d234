"""Multi-point COT: t parallel SPCOT instances with regular noise.

Ferret's LPN step needs a length-n one-hot-union vector with exactly t
set positions, distributed regularly: position ``i`` of block ``b``
(blocks partition [0, n) evenly) carries the b-th SPCOT's puncture.
Each block is covered by one GGM tree whose leaf count is the smallest
power of the arity that fits the block; surplus leaves are dropped by
both parties identically.

The t trees are independent, which is exactly the inter-tree
parallelism Ironman's hybrid expansion schedule exploits (Figure 8).
Same-depth trees are grouped into contiguous runs (regular noise makes
the block sizes differ by at most one, so there are at most two runs
per execution) and each run is **one** one-shot SPCOT
(:func:`repro.spcot.protocol.spcot_send_batch`): every GGM level's OTs
of every tree of the run travel in a single exchange, so one execution
costs one channel round trip per run, independent of t, depth and
arity, and the GGM work is t-wide vectorized kernels.  Outputs, PRG
core-call counts and COT consumption are bit-for-bit those of running
the trees one by one, level by level; that reference lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.crypto.prg import TreePrg
from repro.errors import ParameterError
from repro.ot.channel import Channel
from repro.ot.cot import CotPool
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
    return sum(
        cots_needed(arity ** tree_depth_for(size, arity), arity)
        for size in block_sizes(n, t)
    )


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


def _schedule(sizes: list, arity: int) -> tuple:
    """Shared sender/receiver plan of one execution.

    Returns ``(offsets, runs)`` where ``offsets[i]`` is tree i's start
    in the length-n output and ``runs`` holds ``(first, count, depth,
    tweak_bases)`` per same-depth run.  Both parties must derive the
    identical per-tree tweak schedule from this single place -- a
    desync would silently garble the OT pads.
    """
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    runs = [
        (
            first,
            count,
            depth,
            np.arange(first, first + count, dtype=np.uint64)
            * np.uint64(_TREE_TWEAK_STRIDE),
        )
        for first, count, depth in depth_runs(sizes, arity)
    ]
    return offsets, runs


def mpcot_send(
    channel: Channel,
    pool: CotPool,
    delta: np.ndarray,
    prg: TreePrg,
    n: int,
    t: int,
    rng: np.random.Generator,
    crhf: Crhf = DEFAULT_CRHF,
) -> np.ndarray:
    """Sender side: returns the length-n block vector ``w``."""
    sizes = block_sizes(n, t)
    out = blocks.zeros(n)
    offsets, runs = _schedule(sizes, prg.arity)
    for first, count, depth, tweak_bases in runs:
        leaves = spcot_send_batch(
            channel, pool, delta, prg, depth, count, rng,
            tweak_bases=tweak_bases, crhf=crhf,
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
) -> tuple:
    """Receiver side: returns (u, v) with u one-hot per block.

    ``u`` is the length-n 0/1 noise vector (t set bits at the global
    puncture positions); ``v`` the length-n block vector satisfying
    ``w = v XOR u * Delta``.
    """
    sizes = block_sizes(n, t)
    alphas = np.asarray(alphas, dtype=np.int64)
    if alphas.shape[0] != t:
        raise ParameterError(f"need {t} puncture positions, got {alphas.shape[0]}")
    for tree_idx, size in enumerate(sizes):
        if not 0 <= alphas[tree_idx] < size:
            raise ParameterError(
                f"alpha[{tree_idx}]={alphas[tree_idx]} outside its block of size {size}"
            )
    u = np.zeros(n, dtype=np.uint8)
    v = blocks.zeros(n)
    offsets, runs = _schedule(sizes, prg.arity)
    for first, count, depth, tweak_bases in runs:
        run_v, _ = spcot_receive_batch(
            channel, pool, alphas[first : first + count], prg, depth,
            tweak_bases=tweak_bases, crhf=crhf,
        )
        for i in range(count):
            size = sizes[first + i]
            start = offsets[first + i]
            v[start : start + size] = run_v[i, :size]
            u[start + alphas[first + i]] = 1
    return u, v
