"""The OT-based millionaires' protocol (secure comparison).

P0 holds private X, P1 holds private Y (both l-bit vectors); the
parties end with XOR shares of ``[Y > X]``.  This is the primitive
under DReLU/ReLU/MaxPool in CrypTFlow2-style frameworks (Section 2.2),
and it has their shape: one batch of digit OTs, then a log-depth AND
tree (Rathee et al., CCS'20).

Both inputs are cut into ``q = ceil(l/4)`` digits of 4 bits, MSB first
(the top digit zero-padded).  Per digit position the leaf pair is

    gt_d = [y_d > x_d]        eq_d = [y_d = x_d]

and one 1-out-of-16 OT on 4 COTs gives both shares at once: P0 keeps
a random 2-bit ``(r_gt, r_eq)`` and offers message
``j -> (r_gt XOR [j > x_d], r_eq XOR [j = x_d])``; P1 selects with its
digit (:func:`repro.ot.ot_from_cot.ot_n_send_from_cot`).  No leaf depends
on another, so all ``q * n`` digit OTs run as ONE exchange (one
correction-bit message, one reply of 16 two-bit lanes per digit, one
CRHF pass per party) on the contiguous tweaks ``tweak_base + [0,
4qn)``.  The leaves then fold MSB-first with the associative

    (gt, eq)_hi o (gt, eq)_lo = (gt_hi XOR eq_hi*gt_lo, eq_hi*eq_lo)

pairing neighbours level by level (an odd last node passes through), so
the tree is ``ceil(log2 q)`` deep and every AND of a tree level is one
:func:`and_shared` opening.  The ``eq`` of the rightmost node of every
level is never read (the root's, and recursively its low child's), so
its AND is skipped: ``2(q-1) - popcount(q-1)`` triples per element
(:func:`triples_needed`), none at all for ``l <= 4``.  One comparison
costs ``2 + 2*ceil(log2 q)`` messages (:func:`millionaire_messages`),
all of them party 0 first within a tree level, so a raw socket pair
without a pump cannot deadlock.  The digit width (a protocol constant,
like the tree shape and the tweak layout) must match on both parties.
The bit-leaf tree this replaced (one 1-bit OT per level, ``l`` leaves)
is the reference in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.mpc.triples import BitTriples, and_shared
from repro.ot.channel import Channel, lanes_bytes
from repro.ot.cot import CotPool
from repro.ot.ot_from_cot import ot_n_receive_from_cot, ot_n_reply_bytes, ot_n_send_from_cot

# Unused here but bound: benchmarks/ledger/spans.py patches these names
# in this module.
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot  # noqa: F401

#: Bits per digit leaf: one 1-out-of-2^DIGIT OT each.
DIGIT = 4
_MESSAGES = 1 << DIGIT
_LANE = 2  # (gt, eq) share bits per message


def _digit_count(bits: int) -> int:
    return -(-bits // DIGIT)


def _tree_widths(leaves: int) -> list:
    """Nodes per element at each AND level of the tree over ``leaves``
    leaves (a level of m nodes costs m - 1 ANDs per element)."""
    widths, m = [], leaves
    while m > 1:
        widths.append(m)
        m = (m + 1) // 2
    return widths


def triples_needed(n_elements: int, bits: int) -> int:
    """Beaver bit triples one comparison batch consumes:
    ``2(q-1) - popcount(q-1)`` per element for ``q`` digits (every tree
    level of m nodes costs m - 1 ANDs, and m is even exactly at the set
    bits of q - 1)."""
    q = _digit_count(bits)
    return (2 * (q - 1) - bin(q - 1).count("1")) * n_elements


def cots_needed(n_elements: int, bits: int) -> int:
    """Base COTs for the digit OTs: ``DIGIT`` per digit per element."""
    return DIGIT * _digit_count(bits) * n_elements


def millionaire_bytes(n_elements: int, bits: int) -> int:
    """Exact wire bytes (both parties) of one comparison batch.

    The digit OTs: the receiver's correction bits and the sender's one
    reply of packed 2-bit lanes.  Then per tree level of m nodes one
    opening of ``2(m-1)n`` bits from each party.  Kept beside the
    protocol so a wire-format change here cannot silently strand the
    predictors (the truncation byte models build on this).
    """
    digits = _digit_count(bits) * n_elements
    total = lanes_bytes(DIGIT * digits, 1) + ot_n_reply_bytes(digits, _MESSAGES, _LANE)
    for m in _tree_widths(_digit_count(bits)):
        total += 2 * lanes_bytes(2 * (m - 1) * n_elements, 1)
    return total


def millionaire_messages(bits: int) -> int:
    """Messages (both parties) of one comparison batch: the correction
    bits and the OT reply, then one opening from each party per tree
    level.  Multiplied by a transport's per-message framing (e.g. the
    mux tag header) this converts :func:`millionaire_bytes` into framed
    predictions."""
    return 2 + 2 * len(_tree_widths(_digit_count(bits)))


def _digits(values: np.ndarray, bits: int) -> np.ndarray:
    """``(q, n)`` uint64 digit matrix, row 0 the most significant digit."""
    shifts = DIGIT * np.arange(_digit_count(bits) - 1, -1, -1, dtype=np.uint64)
    return (values[None, :] >> shifts[:, None]) & np.uint64(_MESSAGES - 1)


def _fold(channel: Channel, triples: BitTriples, leaves, party: int) -> np.ndarray:
    """Fold ``(q, n)`` leaf shares (gt in bit 0, eq in bit 1) MSB-first
    into the share of gt.

    The last row's eq is dropped: the rightmost node's eq is never
    read, at any level.  A level of m nodes ANDs ``m // 2`` gt terms and
    ``(m - 1) // 2`` eq terms in one opening.
    """
    gt = (leaves & np.uint64(1)).astype(np.uint8)
    eq = (leaves[:-1] >> np.uint64(1)).astype(np.uint8)
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
    x = _digits(np.asarray(x_private, dtype=np.uint64), bits)[..., None]
    # Message j of a digit: (r_gt ^ [j > x_d]) | (r_eq ^ [j = x_d]) << 1.
    j = np.arange(_MESSAGES, dtype=np.uint64)
    table = (j > x).astype(np.uint64) | (j == x).astype(np.uint64) << np.uint64(1)
    r = rng.integers(0, 1 << _LANE, x.shape, dtype=np.uint64)
    ot_n_send_from_cot(
        channel, pool.take_sender(DIGIT * r.size), (table ^ r).reshape(r.size, _MESSAGES),
        _LANE, tweak_base=tweak_base,
    )
    return _fold(channel, triples, r[..., 0], party=0)


def millionaire_p1(
    channel: Channel,
    y_private: np.ndarray,
    bits: int,
    pool: CotPool,
    triples: BitTriples,
    tweak_base: int = 0,
) -> np.ndarray:
    """P1 side; returns its XOR share of [Y > X]."""
    y = _digits(np.asarray(y_private, dtype=np.uint64), bits)
    got = ot_n_receive_from_cot(
        channel, pool.take_receiver(DIGIT * y.size), y.reshape(-1), _MESSAGES, _LANE,
        tweak_base=tweak_base,
    )
    return _fold(channel, triples, got.reshape(y.shape), party=1)


def validate_inputs(values: np.ndarray, bits: int) -> np.ndarray:
    """Check a private input vector fits the advertised bit width."""
    values = np.asarray(values, dtype=np.uint64)
    if bits < 1 or bits > 63:
        raise ParameterError("comparison bit width must be in [1, 63]")
    if values.size and int(values.max()) >= (1 << bits):
        raise ParameterError(f"inputs exceed {bits} bits")
    return values
