"""The OT-based millionaires' protocol (secure comparison).

P0 holds private X, P1 holds private Y (both l-bit vectors); the
parties end with XOR shares of ``[Y > X]``.  This is the primitive
under DReLU/ReLU/MaxPool in CrypTFlow2-style frameworks (Section 2.2),
and it has their shape: one batch of OTs, then a log-depth AND tree.

Per bit level i (l-1 = MSB) the leaf pair is

    gt_i = t_i = (NOT x_i) AND y_i        eq_i = NOT(x_i XOR y_i)

``t_i`` couples one private bit from each party, so it is one
chosen-message OT with a 1-bit payload; ``eq_i`` is free (P0's share
``NOT x_i``, P1's ``y_i``).  No leaf depends on another, so all ``l * n``
level OTs run as ONE OT-from-COT exchange (one correction-bit message,
one reply of packed 1-bit lanes, one CRHF pass per party), tweaked by
the contiguous range ``tweak_base + j*n + i`` for the j-th level from
the top.  The leaves then fold MSB-first with the associative

    (gt, eq)_hi o (gt, eq)_lo = (gt_hi XOR eq_hi*gt_lo, eq_hi*eq_lo)

pairing neighbours level by level (an odd last node passes through), so
the tree is ``ceil(log2 l)`` deep and every AND of a tree level is one
:func:`and_shared` opening.  The ``eq`` of the rightmost node of every
level is never read (the root's, and recursively its low child's), so
its AND is skipped: ``2(l-1) - popcount(l-1)`` triples per element
(:func:`triples_needed`).  One comparison costs ``2 + 2*ceil(log2 l)``
messages (:func:`millionaire_messages`), all of them party 0 first
within a tree level, so a raw socket pair without a pump cannot
deadlock.  The tree shape and the tweak layout are protocol: both
parties must run the same version.  The bit-serial scan this replaced
(one OT exchange and two ANDs per level) is the reference in
``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.mpc.triples import BitTriples, and_shared
from repro.ot.channel import Channel
from repro.ot.cot import CotPool
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_reply_bytes, ot_send_from_cot


def _tree_widths(bits: int) -> list:
    """Nodes per element at each AND level of the tree over ``bits``
    leaves (a level of m nodes costs m - 1 ANDs per element)."""
    widths, m = [], bits
    while m > 1:
        widths.append(m)
        m = (m + 1) // 2
    return widths


def triples_needed(n_elements: int, bits: int) -> int:
    """Beaver bit triples one comparison batch consumes:
    ``2(l-1) - popcount(l-1)`` per element (every tree level of m nodes
    costs m - 1 ANDs, and m is even exactly at the set bits of l - 1)."""
    return (2 * (bits - 1) - bin(bits - 1).count("1")) * n_elements


def cots_needed(n_elements: int, bits: int) -> int:
    """Base COTs for the level OTs: one per level per element."""
    return bits * n_elements


def _bits_msg(n_bits: int) -> int:
    """Wire bytes of one ``send_bits`` message (8-byte length header)."""
    return 8 + (n_bits + 7) // 8


def millionaire_bytes(n_elements: int, bits: int) -> int:
    """Exact wire bytes (both parties) of one comparison batch.

    The level OTs: the receiver's correction bits and the sender's one
    reply of packed 1-bit lanes.  Then per tree level of m nodes one
    opening of ``2(m-1)n`` bits from each party.  Kept beside the
    protocol so a wire-format change here cannot silently strand the
    predictors (the truncation byte models build on this).
    """
    ots = bits * n_elements
    total = _bits_msg(ots) + ot_reply_bytes(ots, 1)
    for m in _tree_widths(bits):
        total += 2 * _bits_msg(2 * (m - 1) * n_elements)
    return total


def millionaire_messages(bits: int) -> int:
    """Messages (both parties) of one comparison batch: the correction
    bits and the OT reply, then one opening from each party per tree
    level.  Multiplied by a transport's per-message framing (e.g. the
    mux tag header) this converts :func:`millionaire_bytes` into framed
    predictions."""
    return 2 + 2 * len(_tree_widths(bits))


def _bit_levels(values: np.ndarray, bits: int) -> np.ndarray:
    """``(bits, n)`` uint8 bit matrix, row 0 the most significant bit."""
    positions = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    return ((values[None, :] >> positions[:, None]) & np.uint64(1)).astype(np.uint8)


def _fold(channel: Channel, triples: BitTriples, gt, eq, party: int) -> np.ndarray:
    """Fold ``(bits, n)`` leaf shares MSB-first into the share of gt.

    ``eq`` holds every row but the last: the rightmost node's eq is
    never read, at any level.  A level of m nodes ANDs ``m // 2`` gt
    terms and ``(m - 1) // 2`` eq terms in one opening.
    """
    n = gt.shape[1]
    for m in _tree_widths(gt.shape[0]):
        pairs, keep = m // 2, (m - 1) // 2
        lhs = np.concatenate([eq[0 : 2 * pairs : 2], eq[0 : 2 * keep : 2]])
        rhs = np.concatenate([gt[1 : 2 * pairs : 2], eq[1 : 2 * keep : 2]])
        prod = and_shared(channel, triples, lhs.reshape(-1), rhs.reshape(-1), party)
        prod = prod.reshape(pairs + keep, n)
        gt = np.concatenate([gt[0 : 2 * pairs : 2] ^ prod[:pairs], gt[2 * pairs :]])
        eq = prod[pairs:]
    return gt[0]


def millionaire_p0(
    channel: Channel,
    x_private: np.ndarray,
    bits: int,
    pool: CotPool,
    triples: BitTriples,
    rng: np.random.Generator,
    tweak_base: int = 0,
) -> np.ndarray:
    """P0 side; returns its XOR share of [Y > X]."""
    x_levels = _bit_levels(np.asarray(x_private, dtype=np.uint64), bits)
    not_x = x_levels ^ 1
    # t = (NOT x_i) * y_i via OT: P0 offers (r, r XOR NOT x_i), keeps r.
    r = rng.integers(0, 2, not_x.shape, dtype=np.uint8)
    ot_send_from_cot(
        channel, pool.take_sender(r.size), r.reshape(-1), (r ^ not_x).reshape(-1),
        tweak_base=tweak_base, bits=1,
    )
    return _fold(channel, triples, r, not_x[:-1], party=0)


def millionaire_p1(
    channel: Channel,
    y_private: np.ndarray,
    bits: int,
    pool: CotPool,
    triples: BitTriples,
    tweak_base: int = 0,
) -> np.ndarray:
    """P1 side; returns its XOR share of [Y > X]."""
    y_levels = _bit_levels(np.asarray(y_private, dtype=np.uint64), bits)
    t = ot_receive_from_cot(
        channel, pool.take_receiver(y_levels.size), y_levels.reshape(-1),
        tweak_base=tweak_base, bits=1,
    )
    t = t.astype(np.uint8).reshape(y_levels.shape)
    return _fold(channel, triples, t, y_levels[:-1], party=1)


def validate_inputs(values: np.ndarray, bits: int) -> np.ndarray:
    """Check a private input vector fits the advertised bit width."""
    values = np.asarray(values, dtype=np.uint64)
    if bits < 1 or bits > 63:
        raise ParameterError("comparison bit width must be in [1, 63]")
    if values.size and int(values.max()) >= (1 << bits):
        raise ParameterError(f"inputs exceed {bits} bits")
    return values
