"""Dealer-style correlation fabrication for tests and benchmarks.

The base-COT protocol costs a fixed ~0.3 s of public-key operations
per run, so tests that exercise protocols *on top of* COTs fabricate
the correlation directly: sample Delta and z, derive the receiver view.  This is the
genuine COT relation -- ``y = z XOR x*Delta`` -- just without the
key-exchange transcript, so everything downstream (Gilboa, OT
derandomization, triple generation) behaves identically.  Kept in one
place so a change to the COT layout cannot strand a stale copy in some
test file.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.ot.cot import CotReceiverBatch, CotSenderBatch


def fake_cots(n: int, seed: int = 1) -> tuple:
    """(CotSenderBatch, CotReceiverBatch) of n dealt COT correlations."""
    gen = np.random.default_rng(seed)
    delta = blocks.random_blocks(1, gen)
    z = blocks.random_blocks(n, gen)
    x = gen.integers(0, 2, n).astype(np.uint8)
    y = blocks.xor(z, blocks.mul_bit(delta, x))
    return CotSenderBatch(delta, z), CotReceiverBatch(x, y)
