"""Derandomized 1-out-of-2 OT from COT correlations, and the Figure 2
conversion from COT to standard (random-message) OT.

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
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.crhf import DEFAULT_CRHF, Crhf
from repro.errors import ProtocolError
from repro.ot.channel import Channel
from repro.ot.cot import CotReceiverBatch, CotSenderBatch


def _resolve_tweaks(tweaks, tweak_base: int, n: int) -> np.ndarray:
    """Per-element tweak vector: explicit array, or ``tweak_base + i``."""
    if tweaks is None:
        return np.arange(tweak_base, tweak_base + n, dtype=np.uint64)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    if tweaks.shape != (n,):
        raise ProtocolError(f"tweak vector must have shape ({n},), got {tweaks.shape}")
    return tweaks


def ot_send_from_cot(
    channel: Channel,
    cots: CotSenderBatch,
    messages0: np.ndarray,
    messages1: np.ndarray,
    tweak_base: int = 0,
    crhf: Crhf = DEFAULT_CRHF,
    tweaks: np.ndarray = None,
) -> None:
    """Chosen-message OT sender using one COT per message pair."""
    blocks.require_blocks(messages0, "messages0")
    blocks.require_blocks(messages1, "messages1")
    n = messages0.shape[0]
    if len(cots) != n or messages1.shape[0] != n:
        raise ProtocolError("COT batch and message arrays must have equal length")
    d = channel.recv_bits()
    if d.shape[0] != n:
        raise ProtocolError("correction bit vector has the wrong length")
    tweaks = _resolve_tweaks(tweaks, tweak_base, n)
    # Pad for logical message j is H(z XOR (j XOR d) * Delta); both pad
    # vectors go through the hash in one pass.
    keyed0 = blocks.xor(cots.z, blocks.mul_bit(cots.delta, d))
    pads = crhf.hash_tweaked(
        np.concatenate([keyed0, blocks.xor(keyed0, cots.delta)]),
        np.concatenate([tweaks, tweaks]),
    )
    channel.send_blocks(blocks.xor(messages0, pads[:n]))
    channel.send_blocks(blocks.xor(messages1, pads[n:]))


def ot_receive_from_cot(
    channel: Channel,
    cots: CotReceiverBatch,
    choices: np.ndarray,
    tweak_base: int = 0,
    crhf: Crhf = DEFAULT_CRHF,
    tweaks: np.ndarray = None,
) -> np.ndarray:
    """Chosen-message OT receiver; returns messages[choices[i]] per i."""
    choices = np.asarray(choices, dtype=np.uint8)
    n = choices.shape[0]
    if len(cots) != n:
        raise ProtocolError("COT batch and choice vector must have equal length")
    channel.send_bits(cots.x ^ choices)
    e0 = channel.recv_blocks()
    e1 = channel.recv_blocks()
    if e0.shape[0] != n or e1.shape[0] != n:
        raise ProtocolError(
            f"OT reply has {e0.shape[0]} and {e1.shape[0]} blocks, expected {n} each"
        )
    tweaks = _resolve_tweaks(tweaks, tweak_base, n)
    pads = crhf.hash_tweaked(cots.y, tweaks)
    chosen = np.where(choices[:, None].astype(bool), e1, e0)
    return blocks.xor(chosen, pads)


def cot_to_random_ot_sender(
    cots: CotSenderBatch, tweak_base: int = 0, crhf: Crhf = DEFAULT_CRHF
) -> tuple:
    """Figure 2 pre-processing, sender: (H(z), H(z XOR Delta)) pairs."""
    tweaks = np.arange(tweak_base, tweak_base + len(cots), dtype=np.uint64)
    m0, m1 = cots.message_pairs()
    return crhf.hash_tweaked(m0, tweaks), crhf.hash_tweaked(m1, tweaks)


def cot_to_random_ot_receiver(
    cots: CotReceiverBatch, tweak_base: int = 0, crhf: Crhf = DEFAULT_CRHF
) -> tuple:
    """Figure 2 pre-processing, receiver: (b, H(y)) pairs."""
    tweaks = np.arange(tweak_base, tweak_base + len(cots), dtype=np.uint64)
    return cots.x.copy(), crhf.hash_tweaked(cots.y, tweaks)
