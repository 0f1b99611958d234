"""Derandomized 1-out-of-2 and 1-out-of-N OT from COT correlations.

Given a COT correlation -- sender ``(z, z XOR Delta)``, receiver
``(b, y = z XOR b*Delta)`` -- a chosen-message OT follows the standard
beaver-style derandomization:

1. receiver sends the correction ``d = b XOR c`` for actual choice c;
2. sender sends ``e_j = m_j XOR H(z XOR (j XOR d) * Delta)``;
3. receiver outputs ``e_c XOR H(y)`` (the pads line up because
   ``z XOR (c XOR d)*Delta = z XOR b*Delta = y``).

The CRHF breaks the Delta-correlation so one batch of COTs can safely
pad many messages (tweaked by the OT index).  Callers that run many
logically-distinct OT instances inside one batched call (e.g. the
one-shot multi-tree SPCOT, one OT per tree and GGM level) pass an
explicit per-element ``tweaks`` vector instead of the contiguous
``tweak_base + i`` default, so each instance keeps the tweak it would
have used sequentially.

Payloads narrower than a block (a comparison's 1-bit level term, a
16-bit ring element) pass ``bits``: the pad of message j is then the
low ``bits`` of its hash, and the sender's reply is ONE
:meth:`~repro.ot.channel.Channel.send_lanes` frame of both masked
vectors at ``bits`` per lane instead of two 16-byte block arrays.
Both parties must pass the same ``bits``.

:func:`ot_n_send_from_cot` / :func:`ot_n_receive_from_cot` run a
1-out-of-N OT (N = 2^m messages of ``lane_bits`` each) on m COTs per
instance, the digit OT of a CrypTFlow2-style comparison.  COT
``i*n + e`` carries bit i (LSB first) of instance e's choice.  The pad
of message j is the XOR over i of bits ``[j*lane_bits, (j+1)*lane_bits)``
of ``H(z_i XOR j_i*Delta)``: every message reads its own slice of each
hash, so the pads of two messages the receiver did not choose never
cancel against each other (XORing whole-hash pads would hand it the XOR
of those messages).  The reply is one frame of ``N*lane_bits``-bit
lanes, one lane per instance holding all N masked messages.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.errors import ParameterError, ProtocolError
from repro.ot.channel import Channel, lane_bytes, lanes_bytes
from repro.ot.cot import CotReceiverBatch, CotSenderBatch


def _resolve_tweaks(tweaks, tweak_base: int, n: int) -> np.ndarray:
    """Per-element tweak vector: explicit array, or ``tweak_base + i``."""
    if tweaks is None:
        return np.arange(tweak_base, tweak_base + n, dtype=np.uint64)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    if tweaks.shape != (n,):
        raise ProtocolError(f"tweak vector must have shape ({n},), got {tweaks.shape}")
    return tweaks


def _lane_mask(bits: int) -> np.uint64:
    return np.uint64((1 << bits) - 1)


def ot_reply_bytes(n: int, bits: int = None) -> int:
    """Wire bytes of the sender's reply to n OTs of ``bits``-wide
    payloads (``None``: two 16-byte block arrays)."""
    if bits is None:
        return 2 * blocks.BLOCK_BYTES * n
    return lanes_bytes(2 * n, bits)


def ot_send_from_cot(
    channel: Channel,
    cots: CotSenderBatch,
    messages0: np.ndarray,
    messages1: np.ndarray,
    tweak_base: int = 0,
    crhf: Crhf = DEFAULT_CRHF,
    tweaks: np.ndarray = None,
    bits: int = None,
) -> None:
    """Chosen-message OT sender using one COT per message pair.

    Messages are ``(n, 2)`` blocks, or with ``bits`` ``(n,)`` integers
    below ``2^bits`` sent as packed lanes in one reply.
    """
    if bits is None:
        blocks.require_blocks(messages0, "messages0")
        blocks.require_blocks(messages1, "messages1")
    else:
        lane_bytes(bits)  # a bad width fails before anything is received
        messages0 = np.asarray(messages0, dtype=np.uint64)
        messages1 = np.asarray(messages1, dtype=np.uint64)
    n = messages0.shape[0]
    if len(cots) != n or messages1.shape[0] != n:
        raise ProtocolError("COT batch and message arrays must have equal length")
    d = channel.recv_lanes(n, 1)
    tweaks = _resolve_tweaks(tweaks, tweak_base, n)
    # Pad for logical message j is H(z XOR (j XOR d) * Delta); both pad
    # vectors go through the hash in one pass.
    keyed0 = blocks.xor(cots.z, blocks.mul_bit(cots.delta, d))
    pads = crhf.hash_tweaked(
        np.concatenate([keyed0, blocks.xor(keyed0, cots.delta)]),
        np.concatenate([tweaks, tweaks]),
    )
    if bits is None:
        channel.send_blocks(blocks.xor(messages0, pads[:n]))
        channel.send_blocks(blocks.xor(messages1, pads[n:]))
        return
    # A narrow pad is the low ``bits`` of the hash output.
    masked = (np.concatenate([messages0, messages1]) ^ pads[:, 0]) & _lane_mask(bits)
    channel.send_lanes(masked, bits)


def ot_receive_from_cot(
    channel: Channel,
    cots: CotReceiverBatch,
    choices: np.ndarray,
    tweak_base: int = 0,
    crhf: Crhf = DEFAULT_CRHF,
    tweaks: np.ndarray = None,
    bits: int = None,
) -> np.ndarray:
    """Chosen-message OT receiver; returns messages[choices[i]] per i
    (blocks, or ``(n,)`` uint64 with ``bits``)."""
    choices = np.asarray(choices, dtype=np.uint8)
    n = choices.shape[0]
    if len(cots) != n:
        raise ProtocolError("COT batch and choice vector must have equal length")
    channel.send_lanes(cots.x ^ choices, 1)
    if bits is not None:
        masked = channel.recv_lanes(2 * n, bits)  # message 0s, then 1s
        pads = crhf.hash_tweaked(cots.y, _resolve_tweaks(tweaks, tweak_base, n))
        chosen = np.where(choices.astype(bool), masked[n:], masked[:n])
        return (chosen ^ pads[:, 0]) & _lane_mask(bits)
    e0 = channel.recv_blocks(n)
    e1 = channel.recv_blocks(n)
    tweaks = _resolve_tweaks(tweaks, tweak_base, n)
    pads = crhf.hash_tweaked(cots.y, tweaks)
    chosen = np.where(choices[:, None].astype(bool), e1, e0)
    return blocks.xor(chosen, pads)


def _word_bits(n_messages: int, lane_bits: int) -> int:
    """Width of one instance's reply lane (all N masked messages)."""
    width = n_messages * lane_bits
    if n_messages < 2 or n_messages & (n_messages - 1) or width > 64:
        raise ParameterError(
            "1-out-of-N OT needs N a power of two and N * lane_bits within "
            "one 64-bit hash word"
        )
    return width


def ot_n_reply_bytes(n: int, n_messages: int, lane_bits: int) -> int:
    """Wire bytes of the sender's reply to n 1-out-of-N OTs."""
    return lanes_bytes(n, _word_bits(n_messages, lane_bits))


def _choice_bits(cots, n: int, n_messages: int, lane_bits: int) -> int:
    """m = log2 N, once ``cots`` is known to hold m COTs per instance."""
    _word_bits(n_messages, lane_bits)
    m = n_messages.bit_length() - 1
    if len(cots) != m * n:
        raise ProtocolError(f"1-out-of-{n_messages} OT on {n} instances needs {m * n} COTs")
    return m


def ot_n_send_from_cot(
    channel: Channel,
    cots: CotSenderBatch,
    table: np.ndarray,
    lane_bits: int,
    tweak_base: int = 0,
    crhf: Crhf = DEFAULT_CRHF,
) -> None:
    """1-out-of-N OT sender: instance e offers ``table[e, :]``.

    ``table`` is ``(n, N)`` integers below ``2^lane_bits``; ``cots``
    holds ``m*n`` COTs, ``N = 2^m``.
    """
    table = np.asarray(table, dtype=np.uint64)
    n, n_messages = table.shape
    m = _choice_bits(cots, n, n_messages, lane_bits)
    d = channel.recv_lanes(m * n, 1)
    keyed0 = blocks.xor(cots.z, blocks.mul_bit(cots.delta, d))  # the key of j_i = 0
    tweaks = _resolve_tweaks(None, tweak_base, m * n)
    h = crhf.hash_tweaked(
        np.concatenate([keyed0, blocks.xor(keyed0, cots.delta)]),
        np.concatenate([tweaks, tweaks]),
    )[:, 0]
    h0, h1 = h[: m * n].reshape(m, n), h[m * n :].reshape(m, n)
    j = np.arange(n_messages, dtype=np.uint64)
    shifts = j * np.uint64(lane_bits)
    lane = _lane_mask(lane_bits)
    words = np.bitwise_or.reduce((table & lane) << shifts, axis=1)
    for i in range(m):
        # The lanes of messages whose index has bit i set take the Delta-flip key.
        flip = np.bitwise_or.reduce((lane << shifts)[(j >> np.uint64(i)) & np.uint64(1) == 1])
        words ^= (h0[i] & ~flip) | (h1[i] & flip)
    width = n_messages * lane_bits  # the hashes' high bits lie past the last lane
    channel.send_lanes(words & _lane_mask(width), width)


def ot_n_receive_from_cot(
    channel: Channel,
    cots: CotReceiverBatch,
    choices: np.ndarray,
    n_messages: int,
    lane_bits: int,
    tweak_base: int = 0,
    crhf: Crhf = DEFAULT_CRHF,
) -> np.ndarray:
    """1-out-of-N OT receiver: ``(n,)`` uint64, message ``choices[e]``
    of instance e."""
    choices = np.asarray(choices, dtype=np.uint64)
    n = choices.shape[0]
    m = _choice_bits(cots, n, n_messages, lane_bits)
    planes = (choices[None, :] >> np.arange(m, dtype=np.uint64)[:, None]) & np.uint64(1)
    channel.send_lanes(cots.x ^ planes.astype(np.uint8).reshape(-1), 1)
    words = channel.recv_lanes(n, n_messages * lane_bits)
    h = crhf.hash_tweaked(cots.y, _resolve_tweaks(None, tweak_base, m * n))[:, 0]
    pads = np.bitwise_xor.reduce(h.reshape(m, n), axis=0)
    return ((words ^ pads) >> (choices * np.uint64(lane_bits))) & _lane_mask(lane_bits)

