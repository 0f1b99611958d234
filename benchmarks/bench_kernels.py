"""Wall-clock microbenchmarks of the functional protocol kernels.

Unlike the figure/table benches (which drive the *hardware models*),
these measure the actual Python/numpy implementation (AES through the
host's libcrypto): the batch ciphers, GGM expansion, LPN encoding, one secure comparison, and a full
scaled-down OTE iteration.  They guard against performance regressions in the library
itself.
"""

import resource
import statistics
import time

import numpy as np
import pytest

from repro.crypto import blocks
from repro.crypto.aes import AES128
from repro.crypto.chacha import keystream
from repro.crypto.crhf import DEFAULT_CRHF
from repro.crypto.prg import AesTreePrg, ChaChaTreePrg
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.lpn.encode import encode_blocks
from repro.lpn.matrix import generate_matrix
from repro.lpn.params import TABLE4_BY_LABEL
from repro.lpn.sorting import sort_indices
from repro.mpc.compare import cots_needed, millionaire_p0, millionaire_p1, triples_needed
from repro.mpc.matmul import MatmulDims, generate_matrix_triples, matmul_cots
from repro.mpc.triples import dealer_bit_triples, ring_mask_u64
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, verify_cot
from repro.ot.testing import fake_cots
from repro.spcot.ggm import batched_expand_full

RNG = np.random.default_rng(99)
BATCH = blocks.random_blocks(1 << 14, RNG)


def test_kernel_aes_batch(benchmark):
    """2^14 blocks through libcrypto's AES-128-ECB: best 45 us (2.7 ns per
    block) on a 2-core AES-NI host, where the numpy T-table kernel it
    replaced read 4.4 ms."""
    cipher = AES128(b"bench-key-16byte")
    out = benchmark(cipher.encrypt_blocks, BATCH)
    assert out.shape == BATCH.shape


@pytest.mark.parametrize(
    "n",
    # The ledger's call sizes: SPCOT hashes ~150 blocks per call (all
    # per-call floor), a Gilboa chunk 4096 (the per-block slope).
    [150, 4096],
)
def test_kernel_crhf_hash_tweaked(benchmark, n):
    """Best 16 / 29 us at 150 / 4096 blocks on the same host (7 ns per
    block at 4096; the numpy AES read 233 us / 1.20 ms): at 150 blocks
    the call is all fixed numpy and ctypes overhead."""
    tweaks = np.arange(n, dtype=np.uint64)
    out = benchmark(DEFAULT_CRHF.hash_tweaked, BATCH[:n], tweaks)
    assert out.shape == (n, 2)


@pytest.mark.parametrize(
    "dims",
    # The ledger's two layers on a 16-bit ring: 41472 and 23040 AES blocks.
    [MatmulDims(4, 24, 24), MatmulDims(4, 24, 12)],
    ids=lambda d: d.label,
)
def test_kernel_matrix_triple_pair(benchmark, dims):
    """Both parties of one Gilboa matrix triple at one of the ledger's
    layers.  Best 3.1 / 2.1 ms at (4,24,24) / (4,24,12) on the same
    host (medians 5.0 / 3.4 ms), with pads, payloads and shares at the
    ring's lane dtype; the uint64 path with one hash call per pad slice
    and ``np.add.at`` reductions read 6.3 / 2.9 ms (medians 9.4 /
    4.8 ms), and 32.6 ms at (4,24,24) with the numpy AES."""
    bits = 16
    sender, receiver = fake_cots(int(matmul_cots(dims, bits)), seed=5)

    def run():
        pools = (CotPool(receiver=receiver), CotPool(sender=sender))

        def party(p):
            return lambda ch: generate_matrix_triples(
                ch, dims, bits, pools[p], np.random.default_rng(p), party=p
            )

        return run_pair(party(0), party(1))

    t0, t1, _, _ = benchmark(run)
    mask = ring_mask_u64(bits)
    a, b = (t0.a + t1.a) & mask, (t0.b + t1.b) & mask
    assert np.array_equal((t0.c + t1.c) & mask, (a @ b) & mask)


@pytest.mark.parametrize(
    "bits",
    # The ledger's comparisons over n = 96: the 15-bit ReLU carry and the
    # exact Rescale's 16-bit wrap and 4-bit borrow.
    [15, 16, 4],
)
def test_kernel_millionaire(benchmark, bits):
    """Both parties of one comparison over a LocalChannel pair, on dealt
    COTs and bit triples: one digit-OT exchange plus the AND tree."""
    n = 96
    sender, receiver = fake_cots(cots_needed(n, bits), seed=bits)
    gen = np.random.default_rng(bits)
    x = gen.integers(0, 1 << bits, n, dtype=np.uint64)
    y = gen.integers(0, 1 << bits, n, dtype=np.uint64)

    def run():
        t0, t1 = dealer_bit_triples(triples_needed(n, bits), np.random.default_rng(0))
        return run_pair(
            lambda ch: millionaire_p0(
                ch, x, bits, CotPool(sender=sender), t0, np.random.default_rng(1)
            ),
            lambda ch: millionaire_p1(ch, y, bits, CotPool(receiver=receiver), t1),
        )

    g0, g1, _, _ = benchmark(run)
    assert np.array_equal(g0 ^ g1, (y > x).astype(np.uint8))


def test_kernel_chacha8_keystream(benchmark):
    out = benchmark(keystream, b"k" * 32, b"n" * 12, 1 << 20, 8)
    assert len(out) == 1 << 20


def test_kernel_ggm_expand_chacha_4ary(benchmark):
    """5 461 ChaCha8 core calls in 7 level calls, word-major states
    permuted in place: best 1.38 ms (median 1.48) on a 2-core x86 host,
    where the transposing kernel it replaced read 1.90 ms (2.18)."""
    prg = ChaChaTreePrg(4)
    seed = blocks.random_blocks(1, RNG)
    levels = benchmark(batched_expand_full, prg, seed, 7)  # 16384 leaves
    assert levels[-1].shape[0] == 4**7


def test_kernel_ggm_expand_aes_2ary(benchmark):
    """4095 binary expansions, 8190 AES blocks in 12 level calls: best
    0.27 ms on the same host (6.8 ms with the numpy AES).  The SPCOT key
    trees are this PRG (arity 2, their own master key)."""
    prg = AesTreePrg(2)
    seed = blocks.random_blocks(1, RNG)
    levels = benchmark(batched_expand_full, prg, seed, 12)  # 4096 leaves
    assert levels[-1].shape[0] == 2**12


@pytest.mark.parametrize(
    "n,k",
    [
        (1 << 16, 1 << 12),  # 64 KB vector: every gather hits L1/L2
        # 2.7 MB vector, 49 MB index stream: the ledger's lpn_paper regime
        (TABLE4_BY_LABEL["2^20"].n, TABLE4_BY_LABEL["2^20"].k),
    ],
    ids=["64k-rows", "table4-2^20"],
)
def test_kernel_lpn_encode(benchmark, n, k):
    matrix = generate_matrix(n, k, seed=3)
    vec = blocks.random_blocks(k, RNG)
    addend = blocks.random_blocks(n, RNG)
    out = benchmark(encode_blocks, matrix, vec, addend)
    assert out.shape == addend.shape


def test_kernel_index_sorting(benchmark):
    matrix = generate_matrix(1 << 14, 1 << 12, seed=4)
    layout = benchmark(sort_indices, matrix, 256)
    assert layout.n_accesses == matrix.n * matrix.d


#: Extends each party runs before :func:`test_kernel_ote_iteration`
#: measures, and how many it measures.
OTE_WARMUP, OTE_MEASURED = 2, 8


def _measured_extends(endpoint):
    """One party: setup, warm-up extends, then extends under
    ``getrusage(RUSAGE_THREAD)`` -- its minor faults and thread CPU.
    Each batch is dropped when the next one arrives, as the correlation
    pool does after copying it: batches kept alive would make every
    extend's fresh output arrays fault in new pages."""

    def run(channel):
        endpoint.setup(channel)
        for _ in range(OTE_WARMUP):
            endpoint.extend(channel)
        batch, faults, cpu = None, [], []
        for _ in range(OTE_MEASURED):
            before, started = resource.getrusage(resource.RUSAGE_THREAD), time.thread_time()
            batch = endpoint.extend(channel)
            cpu.append(time.thread_time() - started)
            faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before.ru_minflt)
        return batch, faults, cpu

    return run


@pytest.mark.parametrize("arity,prg", [(2, "aes"), (4, "chacha8")])
def test_kernel_ote_iteration(benchmark, arity, prg):
    """Scaled OTE iterations at the perf ledger's set (n = 19 086, k =
    2 625, t = 7), setup included in the timing.  Prints each party's
    minor page faults and thread CPU per extend after warm-up.  With the
    endpoint's extend workspace, on a 2-core x86 host: 0 / 0 (median,
    max 0-1) for 4-ary ChaCha8, 3 / 0 (max ~65) for 2-ary AES, whose
    cipher calls still allocate their outputs.  With per-extend level
    and encode arrays the medians were 100-205 / 174 for AES and, for
    ChaCha8, 96 / 129 in a fresh process but 0 after the AES case had
    run: how often they fault depends on what the allocator saw
    before."""
    config = FerretConfig.small(scale=64, arity=arity, prg_kind=prg)

    def run():
        return run_pair(
            _measured_extends(FerretSender(config, seed=8)),
            _measured_extends(FerretReceiver(config, seed=9)),
        )

    sent, received, _, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    assert verify_cot(sent[0], received[0])
    for party, (_, faults, cpu) in zip(("sender", "receiver"), (sent, received)):
        print(
            f"\n{prg} arity {arity} {party}: minor faults per extend median "
            f"{statistics.median(faults)} (max {max(faults)}), thread CPU "
            f"{statistics.median(cpu) * 1e3:.2f} ms per extend"
        )
