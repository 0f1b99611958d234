"""A Ferret endpoint's extends run in one workspace, sized at construction.

An extend at the ledger's shape used to allocate and free ~1 MB per
party (GGM levels, the ChaCha states, LPN accumulator copies), which the
allocator handed back to the OS and faulted in again every time.  Now
the level buffers, the PRG state and the LPN gather buffer are reused,
MPCOT's output is encoded in place, and an extend allocates little
besides the arrays it returns.  Those must stay fresh: a caller (the
correlation pool, a test) may hold a batch while the next extends run.
"""

from concurrent.futures import ThreadPoolExecutor
import tracemalloc

import numpy as np

from repro.crypto import blocks
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.ot.channel import LocalChannel
from repro.ot.cot import verify_cot

#: The perf ledger's Ferret set: n = 19 086, k = 2 625, t = 7, 4-ary ChaCha8.
LEDGER = FerretConfig.small(scale=64, arity=4, prg_kind="chacha8")

#: What one party's extend may allocate and free again, beyond what it
#: returns.  Without the workspace an extend pair read ~1.2 MB here.
TRANSIENT_BYTES_PER_PARTY = 64 * 1024


def dealt_pair(config, seed=3):
    """A Ferret pair on dealt base COTs (no PKC)."""
    sender, receiver = FerretSender(config, seed=seed), FerretReceiver(config, seed=seed + 1)
    gen = np.random.default_rng(seed + 2)
    r = blocks.random_blocks(config.base_cots_needed, gen)
    bits = gen.integers(0, 2, config.base_cots_needed).astype(np.uint8)
    sender.seed_base_cots(r)
    receiver.seed_base_cots(bits, blocks.xor(r, blocks.mul_bit(sender.delta, bits)))
    return sender, receiver


class ExtendPairs:
    """Both parties' extends, each on a thread of its own."""

    def __init__(self, config):
        self.sender, self.receiver = dealt_pair(config)
        self.channels = LocalChannel.pair(timeout=60)
        self.threads = ThreadPoolExecutor(2)

    def __call__(self):
        sent = self.threads.submit(self.sender.extend, self.channels[0])
        received = self.threads.submit(self.receiver.extend, self.channels[1])
        return sent.result(), received.result()

    def close(self):
        self.threads.shutdown()


def test_extend_pair_allocates_little_beyond_its_outputs():
    pairs = ExtendPairs(LEDGER)
    try:
        for _ in range(2):  # warm-up
            pairs()
        tracemalloc.start()
        try:
            out = pairs()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        pairs.close()
    assert verify_cot(*out)
    transient = peak - after
    assert transient <= 2 * TRANSIENT_BYTES_PER_PARTY, f"{transient} B freed again in one pair"


def test_batches_of_consecutive_extends_never_alias():
    pairs = ExtendPairs(LEDGER)
    try:
        batches = [pairs() for _ in range(3)]
    finally:
        pairs.close()
    first_sent, first_received = batches[0]
    assert verify_cot(first_sent, first_received)  # after extends 2 and 3 ran
    arrays = [(s.z, r.x, r.y) for s, r in batches]
    for i, mine in enumerate(arrays):
        for theirs in arrays[i + 1 :]:
            for a in mine:
                assert not any(np.shares_memory(a, b) for b in theirs)
