"""Base COTs for the OTE "Init" phase: kappa PKC OTs, then extend.

Ferret's first iteration needs ``base_cots_needed`` (thousands of)
genuine COT correlations before its own extension can run.  Public-key
OTs cost modular exponentiations, so -- as Ferret and EMP do -- only
``KAPPA = 128`` of them are ever run, whatever ``n`` is, and a
semi-honest IKNP-style COT extension [IKNP03] stretches those to ``n``:

1. **PKC, reversed.**  The Delta-holder (the COT *sender*) is the
   base-OT *receiver*; its 128 choice bits are the bits of Delta.  The
   COT receiver offers 128 random seed pairs ``(k_i^0, k_i^1)`` and the
   Delta-holder learns ``k_i^{Delta_i}``.  The OTs are the simplest-OT
   flavour of Chou-Orlandi over a Schnorr group: one group element from
   the sender, one per choice from the receiver, hashed Diffie-Hellman
   values as one-time pads.
2. **Expand.**  One batched ChaCha8 call turns every seed into an
   n-bit row: the COT receiver holds ``t_i^0, t_i^1``, the Delta-holder
   ``t_i^{Delta_i}``.
3. **Correct.**  The COT receiver sends the 128 x ceil(n/8)-byte
   matrix ``u_i = t_i^0 XOR t_i^1 XOR x`` (``x`` its n choice bits);
   the Delta-holder folds ``Delta_i * u_i`` into its rows, leaving
   ``q_i = t_i^0 XOR Delta_i * x``.
4. **Transpose** (:func:`repro.crypto.kernels.transpose_128`).  Column
   ``j`` of the two 128 x n matrices is ``q_j = t_j XOR x_j * Delta``:
   the sender's block ``r_j = q_j`` and the receiver's ``y_j = t_j``
   are exactly this repo's COT convention ``y = r XOR x * Delta``.

This is the "Init" bar of the paper's Figure 1(b): a fixed ~0.3 s of
PKC plus a per-COT cost of a few nanoseconds, instead of ~5 ms of
modexps per COT.  ``n <= KAPPA`` has nothing to extend and runs the PKC
OTs directly on ``(r, r XOR Delta)``.

:func:`base_ot_send` / :func:`base_ot_receive` are the chosen-message
PKC OTs on their own: two messages from the sender, one element blob
from the receiver, O(1) round trips for any ``n``.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.group import DEFAULT_GROUP, SchnorrGroup
from repro.crypto.kernels import transpose_128
from repro.crypto.prg import stream_expand
from repro.errors import ProtocolError
from repro.ot.channel import Channel
from repro.utils.bitops import unpack_bits

#: Computational security parameter: the number of PKC OTs behind any
#: number of base COTs, and the bit width of Delta.
KAPPA = 128


def _pad(group: SchnorrGroup, dh_value: int, choice: int, index: int) -> bytes:
    """One-time pad for message ``choice`` of OT ``index``: the KDF output
    itself, with both folded into the tweak."""
    return group.hash_to_key(dh_value, b"|%d|%d" % (choice, index))


def base_ot_send(
    channel: Channel,
    messages0: np.ndarray,
    messages1: np.ndarray,
    group: SchnorrGroup = DEFAULT_GROUP,
) -> None:
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
    a = group.random_scalar()
    big_a = group.gexp(a)
    channel.send_int(n)
    channel.send_bytes(group.element_bytes(big_a))
    big_a_inv_a = group.exp(group.inv(big_a), a)  # A^{-a}, reused per OT
    width = len(group.element_bytes(big_a))
    blob = channel.recv_bytes()
    if len(blob) != n * width:
        raise ProtocolError(
            f"element blob has {len(blob)} bytes, expected {n * width}"
        )
    pads = bytearray()
    for i in range(n):
        b_elem = int.from_bytes(blob[i * width : (i + 1) * width], "big")
        if not 1 < b_elem < group.p - 1:
            raise ProtocolError("receiver sent a degenerate group element")
        b_to_a = group.exp(b_elem, a)
        # If B = g^b * A^c then B^a * A^{-ac} = g^{ab}: pad_c is the DH value's.
        pads += _pad(group, b_to_a, 0, i)
        pads += _pad(group, group.mul(b_to_a, big_a_inv_a), 1, i)
    pairs = np.stack([messages0, messages1], axis=1).reshape(2 * n, 2)
    channel.send_bytes(blocks.to_bytes(blocks.xor(pairs, blocks.from_bytes(bytes(pads)))))


def base_ot_receive(
    channel: Channel,
    choices: np.ndarray,
    group: SchnorrGroup = DEFAULT_GROUP,
) -> np.ndarray:
    """Receiver side: obtain messages[choices[i]][i] for each i."""
    choices = np.asarray(choices, dtype=np.uint8)
    n = choices.shape[0]
    n_sender = channel.recv_int()
    if n_sender != n:
        raise ProtocolError(
            f"sender offers {n_sender} OTs but receiver has {n} choices"
        )
    big_a = int.from_bytes(channel.recv_bytes(), "big")
    if not 1 < big_a < group.p - 1:
        raise ProtocolError("sender sent a degenerate group element")
    # Every OT raises the same A: one window table (~7 pow() calls' worth
    # to build) replaces a full ladder per OT.
    a_table = group.fixed_base(big_a)
    pads = bytearray()
    elems = bytearray()
    for i in range(n):
        b = group.random_scalar()
        b_elem = group.gexp(b)
        if choices[i]:
            b_elem = group.mul(b_elem, big_a)
        elems += group.element_bytes(b_elem)
        pads += _pad(group, a_table.exp(b), int(choices[i]), i)
    channel.send_bytes(bytes(elems))
    payload = channel.recv_bytes()
    if len(payload) != 2 * blocks.BLOCK_BYTES * n:
        raise ProtocolError(
            f"sender payload has {len(payload)} bytes, expected "
            f"{2 * blocks.BLOCK_BYTES * n}"
        )
    pairs = blocks.from_bytes(payload).reshape(n, 2, 2)
    chosen = pairs[np.arange(n), choices]
    return blocks.xor(chosen, blocks.from_bytes(bytes(pads)))


def base_cot_send(
    channel: Channel,
    n: int,
    delta: np.ndarray,
    rng: np.random.Generator,
    group: SchnorrGroup = DEFAULT_GROUP,
) -> np.ndarray:
    """Delta-correlated base COTs, sender side: returns r (n blocks).

    The receiver obtains ``r XOR b*Delta`` for its choice bits ``b``; the
    pair of sides therefore holds genuine COT correlations, exactly what
    the Ferret setup consumes.  ``rng`` is drawn from only when
    ``n <= KAPPA``; beyond that ``r`` is fixed by the receiver's seeds
    and Delta.
    """
    if n <= KAPPA:
        r = blocks.random_blocks(n, rng)
        base_ot_send(channel, r, blocks.xor(r, delta), group=group)
        return r
    # Bit i of Delta, in the order transpose_128 gives row i.
    bits = unpack_bits(blocks.to_bytes(delta), KAPPA)
    seeds = base_ot_receive(channel, bits, group=group)
    nbytes = (n + 7) // 8
    n_receiver = channel.recv_int()
    if n_receiver != n:
        raise ProtocolError(
            f"receiver extends to {n_receiver} COTs but sender wants {n}"
        )
    correction = channel.recv_bytes()
    if len(correction) != KAPPA * nbytes:
        raise ProtocolError(
            f"correction matrix has {len(correction)} bytes, expected "
            f"{KAPPA * nbytes}"
        )
    u = np.frombuffer(correction, dtype=np.uint8).reshape(KAPPA, nbytes)
    q = stream_expand(seeds, nbytes)
    held_one = bits.astype(bool)
    q[held_one] ^= u[held_one]
    return transpose_128(q, n)


def base_cot_receive(
    channel: Channel,
    choices: np.ndarray,
    rng: np.random.Generator,
    group: SchnorrGroup = DEFAULT_GROUP,
) -> np.ndarray:
    """Delta-correlated base COTs, receiver side: returns r XOR b*Delta.

    ``rng`` supplies the KAPPA seed pairs of the extension (the mirror
    of :func:`base_cot_send`: drawn from only when ``n > KAPPA``), so
    the output is reproducible from the caller's seed.
    """
    choices = np.asarray(choices, dtype=np.uint8)
    n = choices.shape[0]
    if n <= KAPPA:
        return base_ot_receive(channel, choices, group=group)
    seeds = blocks.random_blocks(2 * KAPPA, rng)
    base_ot_send(channel, seeds[:KAPPA], seeds[KAPPA:], group=group)
    nbytes = (n + 7) // 8
    t = stream_expand(seeds, nbytes)
    x = np.packbits(choices, bitorder="little")
    channel.send_int(n)
    channel.send_bytes((t[:KAPPA] ^ t[KAPPA:] ^ x).tobytes())
    return transpose_128(t[:KAPPA], n)
