"""Wall-clock microbenchmarks of the functional protocol kernels.

Unlike the figure/table benches (which drive the *hardware models*),
these measure the actual Python/numpy implementation: the batch
ciphers, GGM expansion, LPN encoding, and a full scaled-down OTE
iteration.  They guard against performance regressions in the library
itself.
"""

import numpy as np
import pytest

from repro.crypto import blocks
from repro.crypto.aes import AES128
from repro.crypto.chacha import keystream
from repro.crypto.crhf import DEFAULT_CRHF
from repro.crypto.prg import AesTreePrg, ChaChaTreePrg
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import ferret_pair
from repro.lpn.encode import encode_blocks
from repro.lpn.matrix import generate_matrix
from repro.lpn.params import TABLE4_BY_LABEL
from repro.lpn.sorting import sort_indices
from repro.mpc.matmul import MatmulDims, generate_matrix_triples, matmul_cots
from repro.mpc.triples import ring_mask_u64
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, verify_cot
from repro.ot.testing import fake_cots
from repro.spcot.ggm import expand_full

RNG = np.random.default_rng(99)
BATCH = blocks.random_blocks(1 << 14, RNG)


def test_kernel_aes_batch(benchmark):
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
    tweaks = np.arange(n, dtype=np.uint64)
    out = benchmark(DEFAULT_CRHF.hash_tweaked, BATCH[:n], tweaks)
    assert out.shape == (n, 2)


def test_kernel_matrix_triple_pair(benchmark):
    """Both parties of one Gilboa matrix triple at the ledger's first
    layer, (4,24,24) on a 16-bit ring: 41472 AES blocks."""
    dims, bits = MatmulDims(4, 24, 24), 16
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


def test_kernel_chacha8_keystream(benchmark):
    out = benchmark(keystream, b"k" * 32, b"n" * 12, 1 << 20, 8)
    assert len(out) == 1 << 20


def test_kernel_ggm_expand_chacha_4ary(benchmark):
    prg = ChaChaTreePrg(4)
    seed = blocks.random_blocks(1, RNG)
    levels = benchmark(expand_full, prg, seed, 7)  # 16384 leaves
    assert levels[-1].shape[0] == 4**7


def test_kernel_ggm_expand_aes_2ary(benchmark):
    prg = AesTreePrg(2)
    seed = blocks.random_blocks(1, RNG)
    levels = benchmark(expand_full, prg, seed, 12)  # 4096 leaves
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


@pytest.mark.parametrize("arity,prg", [(2, "aes"), (4, "chacha8")])
def test_kernel_ote_iteration(benchmark, arity, prg):
    """One full scaled OTE iteration (setup amortized out)."""
    config = FerretConfig.small(scale=1024, arity=arity, prg_kind=prg)

    def run():
        return ferret_pair(config, rounds=1, seed=8)

    s_out, r_out, _, _ = benchmark.pedantic(run, rounds=1, iterations=1)
    assert verify_cot(s_out[0], r_out[0])
