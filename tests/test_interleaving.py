"""Seeded thread-interleaving hammer over Ferret's extend.

In-process two-party runs put both parties' threads through the same
module-level objects -- the key-tree PRG of ``repro.spcot.protocol``
(one large batched expansion per extend), the default CRHF, the ChaCha
kernels.  A cache or scratch buffer shared between threads there does
not crash; it hands one party a few wrong blocks (the PR 9 ChaCha
state-template race was exactly that and was found by luck).  This
test shrinks the interpreter's switch interval so threads are
preempted inside those calls, runs more party threads than the host
has cores, checks every batch, and requires the output stream to be
byte-identical to the one produced at the default interval.  A second
test aims at ``DEFAULT_CRHF`` alone: threads hash different batches
through the one shared instance and each compares with the reference.
"""

import hashlib
import sys
import threading

import numpy as np
from oracles import crhf_hash_reference

from repro.crypto import blocks
from repro.crypto.crhf import _DEFAULT_KEY, DEFAULT_CRHF
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.ot.channel import LocalChannel
from repro.ot.cot import verify_cot

#: (arity, seed) per concurrent session; 2 threads each.
SESSIONS = [(4, 31), (4, 32), (2, 33)]
EXTENDS = 8  # per session: 24 extend pairs per hammer run
JOIN_TIMEOUT_S = 60.0


def dealt_pair(arity, seed):
    """A Ferret pair whose first base COTs are dealt, not minted (no PKC)."""
    cfg = FerretConfig.small(scale=1024, arity=arity, prg_kind="chacha8")
    sender, receiver = FerretSender(cfg, seed=seed), FerretReceiver(cfg, seed=seed + 100)
    gen = np.random.default_rng(seed + 200)
    r = blocks.random_blocks(cfg.base_cots_needed, gen)
    bits = gen.integers(0, 2, cfg.base_cots_needed).astype(np.uint8)
    sender.seed_base_cots(r)
    receiver.seed_base_cots(bits, blocks.xor(r, blocks.mul_bit(sender.delta, bits)))
    return sender, receiver


def run_sessions():
    """Every session's parties on their own threads, all at once; returns
    the digest of all outputs (session order, then extend order)."""
    outputs, errors, threads = {}, [], []

    def party(key, endpoint, channel):
        try:
            outputs[key] = [endpoint.extend(channel) for _ in range(EXTENDS)]
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append((key, exc))
            channel.close()

    for idx, (arity, seed) in enumerate(SESSIONS):
        chan_s, chan_r = LocalChannel.pair(timeout=JOIN_TIMEOUT_S)
        sender, receiver = dealt_pair(arity, seed)
        for role, endpoint, channel in (("s", sender, chan_s), ("r", receiver, chan_r)):
            threads.append(
                threading.Thread(target=party, args=((idx, role), endpoint, channel), daemon=True)
            )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)

    digest = hashlib.sha256()
    for idx in range(len(SESSIONS)):
        for s_batch, r_batch in zip(outputs[idx, "s"], outputs[idx, "r"]):
            assert verify_cot(s_batch, r_batch)
            digest.update(s_batch.z.tobytes() + r_batch.x.tobytes() + r_batch.y.tobytes())
    return digest.hexdigest()


def test_extend_is_bit_exact_under_a_tiny_switch_interval():
    calm = run_sessions()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        hammered = run_sessions()
    finally:
        sys.setswitchinterval(interval)
    assert hammered == calm


def test_shared_default_crhf_under_a_tiny_switch_interval():
    """Both parties' threads hash through ``DEFAULT_CRHF``; AES scratch
    kept on the instance instead of the call would mix their states."""
    mismatches, finished, threads = [], [], []

    def hammer(seed, n):
        gen = np.random.default_rng(seed)
        for _ in range(40):
            x = blocks.random_blocks(n, gen)
            tweaks = gen.integers(0, 2**64, n, dtype=np.uint64)
            if not np.array_equal(
                DEFAULT_CRHF.hash_tweaked(x, tweaks),
                crhf_hash_reference(_DEFAULT_KEY, x, tweaks),
            ):
                mismatches.append(seed)
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed, n in ((41, 150), (42, 150), (43, 1024)):
            threads.append(threading.Thread(target=hammer, args=(seed, n), daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(finished) == [41, 42, 43]  # none hung, none raised
    assert not mismatches
