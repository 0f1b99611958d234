"""Base COTs for the OTE "Init" phase: kappa seed OTs, then extend.

Ferret's first iteration needs ``base_cots_needed`` (thousands of)
genuine COT correlations before its own extension can run.  Public-key
OTs cost elliptic-curve scalar multiplications, so -- as Ferret and EMP
do -- only ``KAPPA = 128`` of them are ever run per service pair,
whatever ``n`` is, and a semi-honest IKNP-style COT extension [IKNP03]
stretches those to any ``n >= 1``:

1. **Seed OTs, reversed.**  The Delta-holder (the COT *sender*) is the
   seed-OT *receiver*; its 128 choice bits are the bits of Delta.  The
   COT receiver offers 128 random seed pairs ``(k_i^0, k_i^1)`` and the
   Delta-holder learns ``k_i^{Delta_i}``.  The first direction of a
   pair runs them as PKC: the simplest-OT flavour of Chou-Orlandi on
   the P-256 curve, :data:`~repro.crypto.group.DEFAULT_GROUP` (one
   point from the sender, one per choice from the receiver, hashed
   Diffie-Hellman points as one-time pads).  A caller that already
   holds ``KAPPA`` COTs of another extension in which the seed offerer
   is the COT sender passes them as ``seed_cots``: the seed OTs are then
   derandomized OTs over those COTs (:mod:`repro.ot.ot_from_cot`,
   tweaks from :data:`BOOTSTRAP_TWEAK`) and no public-key operation
   runs.  That is how a service's reverse direction bootstraps from its
   forward one.
2. **Expand.**  One batched ChaCha8 call turns every seed into an
   n-bit row: the COT receiver holds ``t_i^0, t_i^1``, the Delta-holder
   ``t_i^{Delta_i}``.
3. **Correct.**  The COT receiver sends ``n`` and the 128 x ceil(n/8)
   matrix ``u_i = t_i^0 XOR t_i^1 XOR x`` (``x`` its n choice bits) as
   one frame of 8-bit lanes; the Delta-holder folds ``Delta_i * u_i``
   into its rows, leaving ``q_i = t_i^0 XOR Delta_i * x``.
4. **Transpose** (:func:`repro.crypto.kernels.transpose_128`).  Column
   ``j`` of the two 128 x n matrices is ``q_j = t_j XOR x_j * Delta``:
   the sender's block ``r_j = q_j`` and the receiver's ``y_j = t_j``
   are exactly this repo's COT convention ``y = r XOR x * Delta``.

This is the "Init" bar of the paper's Figure 1(b): a fixed ~30-40 ms
of PKC (128 OTs, three P-256 scalar multiplications each) plus a
per-COT cost of a few nanoseconds.

:func:`base_ot_send` / :func:`base_ot_receive` are the chosen-message
PKC OTs on their own, in additive notation: the sender sends an ``n``
header and A = aG; the receiver sends one blob of B_i = b_i G (+ A when
its choice is 1) and keeps the pad KDF(b_i A); the sender's pads are
KDF(a B_i) and KDF(a B_i - a A), and it sends one payload of ``2n``
blocks -- O(1) round trips for any ``n``.  Every frame goes through the
channel codec at a declared shape (points as 8-bit lanes in the
group's :meth:`~repro.crypto.group.P256.encode` format, 33 bytes each),
so :func:`~repro.ot.channel.lanes_bytes` is the byte model of the
whole cold start.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.group import DEFAULT_GROUP, Point
from repro.crypto.kernels import transpose_128
from repro.crypto.prg import stream_expand
from repro.errors import ParameterError, ProtocolError
from repro.ot.channel import Channel
from repro.ot.cot import CotReceiverBatch, CotSenderBatch
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot
from repro.utils.bitops import unpack_bits

#: Computational security parameter: the number of PKC OTs behind any
#: number of base COTs, and the bit width of Delta.
KAPPA = 128

#: CRHF tweak of seed OT i run over ``seed_cots`` is ``BOOTSTRAP_TWEAK +
#: i``: far above every other tweak range (SPCOT trees, comparison
#: digits, Gilboa pads stride 2^48), so no pad is shared with them.
BOOTSTRAP_TWEAK = 1 << 62


def _pad(dh_value: Point, choice: int, index: int) -> bytes:
    """One-time pad for message ``choice`` of OT ``index``: the KDF output
    itself, with both folded into the tweak."""
    return DEFAULT_GROUP.hash_to_key(dh_value, b"|%d|%d" % (choice, index))


def _send_elements(channel: Channel, elements) -> None:
    channel.send_lanes(np.frombuffer(DEFAULT_GROUP.encode(elements), dtype=np.uint8), 8)


def _recv_elements(channel: Channel, n: int) -> list:
    return DEFAULT_GROUP.decode(channel.recv_lanes(n * DEFAULT_GROUP.width, 8).tobytes(), n)


def base_ot_send(channel: Channel, messages0: np.ndarray, messages1: np.ndarray) -> None:
    """Sender side: transfer one of (messages0[i], messages1[i]) per i.

    Args:
        channel: duplex channel to the receiver.
        messages0: (n, 2) blocks, the "0" messages.
        messages1: (n, 2) blocks, the "1" messages.
    """
    blocks.require_blocks(messages0, "messages0")
    blocks.require_blocks(messages1, "messages1")
    if messages0.shape != messages1.shape:
        raise ProtocolError("message arrays must have identical shape")
    n = messages0.shape[0]
    a = DEFAULT_GROUP.random_scalar()
    big_a = DEFAULT_GROUP.base_mul(a)
    channel.send_lanes([n], 64)
    _send_elements(channel, [big_a])
    minus_aa = DEFAULT_GROUP.neg(DEFAULT_GROUP.mul(big_a, a))  # -aA, reused per OT
    pads = bytearray()
    for i, big_b in enumerate(_recv_elements(channel, n)):
        ab = DEFAULT_GROUP.mul(big_b, a)
        # If B = bG + cA then aB - c aA = b(aG): pad_c is the DH value's.
        pads += _pad(ab, 0, i)
        pads += _pad(DEFAULT_GROUP.add(ab, minus_aa), 1, i)
    pairs = np.stack([messages0, messages1], axis=1).reshape(2 * n, 2)
    channel.send_blocks(blocks.xor(pairs, blocks.from_bytes(bytes(pads))))


def base_ot_receive(channel: Channel, choices: np.ndarray) -> np.ndarray:
    """Receiver side: obtain messages[choices[i]][i] for each i."""
    choices = np.asarray(choices, dtype=np.uint8)
    n = choices.shape[0]
    n_sender = int(channel.recv_lanes(1, 64)[0])
    if n_sender != n:
        raise ProtocolError(
            f"sender offers {n_sender} OTs but receiver has {n} choices"
        )
    (big_a,) = _recv_elements(channel, 1)
    pads = bytearray()
    elems = []
    for i in range(n):
        b = DEFAULT_GROUP.random_scalar()
        big_b = DEFAULT_GROUP.base_mul(b)
        if choices[i]:
            big_b = DEFAULT_GROUP.add(big_b, big_a)
        elems.append(big_b)
        pads += _pad(DEFAULT_GROUP.mul(big_a, b), int(choices[i]), i)
    _send_elements(channel, elems)
    pairs = channel.recv_blocks(2 * n).reshape(n, 2, 2)
    chosen = pairs[np.arange(n), choices]
    return blocks.xor(chosen, blocks.from_bytes(bytes(pads)))


def _require_seed_cots(seed_cots) -> None:
    if len(seed_cots) != KAPPA:
        raise ParameterError(f"seed OTs need {KAPPA} COTs, got {len(seed_cots)}")


def base_cot_send(
    channel: Channel, n: int, delta: np.ndarray, seed_cots: CotReceiverBatch = None
) -> np.ndarray:
    """Delta-correlated base COTs, sender side: returns r (n blocks).

    The receiver obtains ``r XOR b*Delta`` for its choice bits ``b``; the
    pair of sides therefore holds genuine COT correlations, exactly what
    the Ferret setup consumes.  ``r`` is fixed by the receiver's seeds
    and Delta, so this side draws no randomness of its own beyond the
    PKC scalars.  ``seed_cots`` (``KAPPA`` receiver COTs whose sender is
    this call's peer) replace the PKC seed OTs.
    """
    # Bit i of Delta, in the order transpose_128 gives row i.
    bits = unpack_bits(blocks.to_bytes(delta), KAPPA)
    if seed_cots is None:
        seeds = base_ot_receive(channel, bits)
    else:
        _require_seed_cots(seed_cots)
        seeds = ot_receive_from_cot(channel, seed_cots, bits, tweak_base=BOOTSTRAP_TWEAK)
    nbytes = (n + 7) // 8
    n_receiver = int(channel.recv_lanes(1, 64)[0])
    if n_receiver != n:
        raise ProtocolError(
            f"receiver extends to {n_receiver} COTs but sender wants {n}"
        )
    u = channel.recv_lanes(KAPPA * nbytes, 8).reshape(KAPPA, nbytes)
    q = stream_expand(seeds, nbytes)
    held_one = bits.astype(bool)
    q[held_one] ^= u[held_one]
    return transpose_128(q, n)


def base_cot_receive(
    channel: Channel,
    choices: np.ndarray,
    rng: np.random.Generator,
    seed_cots: CotSenderBatch = None,
) -> np.ndarray:
    """Delta-correlated base COTs, receiver side: returns r XOR b*Delta.

    ``rng`` supplies the KAPPA seed pairs of the extension, so the
    output is reproducible from the caller's seed.  ``seed_cots``
    (``KAPPA`` sender COTs whose receiver is this call's peer) carry the
    seed pairs in place of PKC OTs.
    """
    choices = np.asarray(choices, dtype=np.uint8)
    n = choices.shape[0]
    seeds = blocks.random_blocks(2 * KAPPA, rng)
    if seed_cots is None:
        base_ot_send(channel, seeds[:KAPPA], seeds[KAPPA:])
    else:
        _require_seed_cots(seed_cots)
        ot_send_from_cot(
            channel, seed_cots, seeds[:KAPPA], seeds[KAPPA:], tweak_base=BOOTSTRAP_TWEAK
        )
    nbytes = (n + 7) // 8
    t = stream_expand(seeds, nbytes)
    x = np.packbits(choices, bitorder="little")
    channel.send_lanes([n], 64)
    channel.send_lanes(t[:KAPPA] ^ t[KAPPA:] ^ x, 8)
    return transpose_128(t[:KAPPA], n)
