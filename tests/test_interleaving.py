"""Seeded thread-interleaving hammer over Ferret's extend.

In-process two-party runs put both parties' threads through the same
module-level objects -- the AES key-tree PRG of ``repro.spcot.protocol``,
the default CRHF (both on per-thread libcrypto contexts), the ChaCha
kernels.  A cache or scratch buffer shared between threads there does
not crash; it hands one party a few wrong blocks (a ChaCha
state-template race shared by both parties was exactly that and was
found by luck).  Every Ferret endpoint now owns its ChaCha tree PRG, so
no ChaCha instance is shared here any more: the guard of a shared
``ChaChaTreePrg`` is ``tests/test_prg.py::TestWordMajorKernel``.  This
test shrinks the interpreter's switch interval so threads are
preempted inside those calls, runs more party threads than the host
has cores, checks every batch, and requires the output stream to be
byte-identical to the one produced at the default interval.  A second
test aims at ``DEFAULT_CRHF`` alone: threads hash different batches
through the one shared instance and each compares with the reference.
A third runs the online verbs -- ReLU and exact truncation, whose
comparisons push one large digit-OT batch each through that CRHF --
on three service pairs at once and checks them against the plaintext
fixed-point oracle.  A fourth does the same for derived production:
three service pairs make bit triples (``produce.TRI``) and a matrix
triple (``produce.MTRI``) at once, and every reconstruction must
satisfy ``c = a AND b`` and ``C = A @ B``.
"""

import hashlib
import sys
import threading

import numpy as np
from oracles import crhf_hash_reference
from parties import draws_plan, start_service_pair

from repro.crypto import blocks
from repro.crypto.crhf import _DEFAULT_KEY, DEFAULT_CRHF
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.mpc.relu import relu_via_service
from repro.mpc.sharing import ArithmeticShares
from repro.mpc.truncation import FixedPointConfig, trunc_via_service
from repro.ot.channel import LocalChannel
from repro.ot.cot import verify_cot
from repro.runtime import ServiceTuning

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
    """Both parties' threads hash through ``DEFAULT_CRHF``; one cipher
    context shared between threads (the library call drops the GIL)
    would mix their states."""
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


FX = FixedPointConfig(bits=16, frac_bits=4)
VERB_TUNING = ServiceTuning(
    ring_bits=16, triple_chunk=512,
)
VERB_ELEMENTS = 24
#: Two TRI commands per pair (``triple_chunk`` 512), one MTRI.
DERIVED_DRAWS = [("tri", (), 700), ("mtri", (3, 5, 4), 1)]


def hammer_service_pairs(body, seeds):
    """One started service pair per seed; both parties of every pair run
    ``body(idx, party, svc)`` on their own threads at once under a tiny
    switch interval.  Returns ``{(idx, party): result}``."""
    cfg = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
    pairs = [start_service_pair(cfg, VERB_TUNING, seed=seed) for seed in seeds]
    outputs, errors, threads = {}, [], []

    def party(idx, p):
        try:
            outputs[idx, p] = body(idx, p, pairs[idx][p])
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append((idx, p, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for idx in range(len(pairs)):
            for p in (0, 1):
                threads.append(threading.Thread(
                    target=party, args=(idx, p), name=f"hammer{idx}-p{p}", daemon=True
                ))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(4 * JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
        for svc0, svc1, mux0, mux1 in pairs:
            svc0.stop(), svc1.stop()
            mux0.close(), mux1.close()
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    return outputs


def test_online_verbs_under_a_tiny_switch_interval():
    """Three service pairs run ReLU then exact truncation concurrently;
    every reconstruction must equal the numpy oracle bit for bit."""
    mask = FX.mask
    gen = np.random.default_rng(51)
    values = gen.integers(0, 1 << 16, (3, VERB_ELEMENTS), dtype=np.uint64)
    share0 = gen.integers(0, 1 << 16, values.shape, dtype=np.uint64)
    shares = (share0, (values - share0) & mask)

    def body(idx, p, svc):
        session = svc.session("hammer")
        rng = np.random.default_rng(100 * idx + p)
        relu, _ = relu_via_service(session, ArithmeticShares(shares[p][idx], 16), rng)
        trunc = trunc_via_service(session, shares[p][idx], FX, rng)
        return relu.values.astype(np.uint64), trunc

    outputs = hammer_service_pairs(body, [0x1E + idx for idx in range(3)])
    signed = FX.to_signed(values)
    for idx in range(3):
        (relu0, trunc0), (relu1, trunc1) = outputs[idx, 0], outputs[idx, 1]
        want_relu = np.where(signed[idx] >= 0, values[idx], 0).astype(np.uint64)
        assert np.array_equal((relu0 + relu1) & mask, want_relu)
        assert np.array_equal((trunc0 + trunc1) & mask, FX.trunc_reference(values[idx]))


def test_derived_production_under_a_tiny_switch_interval():
    """Three service pairs prefill bit triples and a matrix triple
    concurrently, then draw them; every triple must reconstruct."""

    def body(idx, p, svc):
        draws_plan(DERIVED_DRAWS, svc.tuning.ring_bits).prefill(svc, 4 * JOIN_TIMEOUT_S)
        batches, _ = svc.session("derived").draw(DERIVED_DRAWS)
        return batches

    outputs = hammer_service_pairs(body, [0x2E + idx for idx in range(3)])
    mask = FX.mask
    for idx in range(3):
        (tri0, mtri0), (tri1, mtri1) = outputs[idx, 0], outputs[idx, 1]
        assert len(tri0) == len(tri1) == DERIVED_DRAWS[0][2]
        assert np.array_equal(tri0.c ^ tri1.c, (tri0.a ^ tri1.a) & (tri0.b ^ tri1.b))
        a, b = (mtri0.a + mtri1.a) & mask, (mtri0.b + mtri1.b) & mask
        assert np.array_equal((mtri0.c + mtri1.c) & mask, (a @ b) & mask)
