"""Reference implementations the shipped protocols are compared against.

``spcot_send`` / ``spcot_receive`` run ONE SPCOT instance the way the
protocol is usually written down: level by level, one derandomized OT
(and, for arity > 2, one key-tree transfer plus one masked-sums
message) per GGM level, each with its own channel round trip.
``mpcot_send_sequential`` / ``mpcot_receive_sequential`` run the t
trees of a multi-point execution one after the other through them.

The shipped one-shot path (``repro.spcot.protocol.spcot_*_batch`` under
``repro.spcot.mpcot``) must reproduce these outputs bit for bit from
the same rng state, with the same PRG core-call counts and the same COT
consumption; only the message schedule differs.  The tweak layout and
the key-tree PRG are spelled out here, not imported, so the comparison
also pins the shipped schedule.

``chacha_core_reference`` and ``encode_blocks_reference`` /
``encode_bits_reference`` are the numpy formulations ``repro.crypto.
chacha`` and ``repro.lpn.encode`` shipped before their in-place kernels
(one ``(n,)`` array per ChaCha state word; gather all ``d`` rows, then
``np.bitwise_xor.reduce``), kept word for word: the kernels must match
them bit for bit.  ``aes_encrypt_blocks_reference`` is likewise the
T-table formulation ``repro.crypto.aes`` shipped before its column-major
kernel (one ``(n,)`` array per state column, bytes pulled out with
``>>`` and ``& 0xFF``), and ``crhf_hash_reference`` the MMO hash as
``repro.crypto.crhf`` wrote it then (copy, tweak, sigma, encrypt, XOR).

``millionaire_p0_reference`` / ``millionaire_p1_reference`` are the
bit-leaf comparison ``repro.mpc.compare`` shipped before its 4-bit
digit leaves: one leaf per bit level, ``t_i = (NOT x_i) AND y_i`` by one
1-bit-lane OT per level (all levels in one exchange, tweaks
``tweak_base + j*n + i`` for the j-th level from the MSB) and ``eq_i``
free, folded by the same log-depth AND tree over ``l`` leaves
(:func:`bit_leaf_triples` triples, ``l*n`` COTs).  The shipped
comparison must reconstruct to the same ``[Y > X]``; shares, COT and
triple counts and wire bytes differ.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import blocks
from repro.crypto.aes import _SBOX, _build_tables, expand_key
from repro.crypto.crhf import DEFAULT_CRHF
from repro.crypto.prg import ChaChaTreePrg
from repro.mpc.triples import and_shared
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot
from repro.spcot.ggm import PuncturedReconstructor, alpha_digits, expand_full, level_sums
from repro.spcot.mpcot import block_sizes, tree_depth_for
from repro.utils.bitops import log_base

_KEY_TREE_PRG = ChaChaTreePrg(arity=2, rounds=8, salt=b"ironman-key-tree")
_TREE_TWEAK_STRIDE = 1 << 20  # per tree
_LEVEL_TWEAK_STRIDE = 64  # per GGM level inside a tree's stride
_MASK_TWEAK_OFFSET = 32  # a level's masked sums, above its key-tree OT pads


def spcot_send(channel, pool, delta, prg, depth, rng, tweak_base=0, crhf=DEFAULT_CRHF):
    """Run SPCOT as the sender; returns the leaf vector ``w`` (l blocks)."""
    m = prg.arity
    seed = blocks.random_blocks(1, rng)
    levels = expand_full(prg, seed, depth)
    for level_idx in range(1, depth + 1):
        sums = level_sums(levels[level_idx], m)
        tweak = tweak_base + level_idx * _LEVEL_TWEAK_STRIDE
        if m == 2:
            cot = pool.take_sender(1)
            ot_send_from_cot(channel, cot, sums[0:1], sums[1:2], tweak_base=tweak, crhf=crhf)
        else:
            kt_depth = log_base(m, 2)
            kt_seed = blocks.random_blocks(1, rng)
            kt_levels = expand_full(_KEY_TREE_PRG, kt_seed, kt_depth)
            for kt_level in range(1, kt_depth + 1):
                kt_sums = level_sums(kt_levels[kt_level], 2)
                cot = pool.take_sender(1)
                ot_send_from_cot(
                    channel,
                    cot,
                    kt_sums[0:1],
                    kt_sums[1:2],
                    tweak_base=tweak + kt_level,
                    crhf=crhf,
                )
            keys = kt_levels[-1]  # (m, 2) one-time keys q_j
            mask_tweaks = np.arange(m, dtype=np.uint64) + np.uint64(tweak + _MASK_TWEAK_OFFSET)
            channel.send_blocks(blocks.xor(sums, crhf.hash_tweaked(keys, mask_tweaks)))
    leaves = levels[-1]
    psi = blocks.xor(delta, blocks.xor_reduce(leaves))
    channel.send_blocks(psi)
    return leaves


def spcot_receive(channel, pool, alpha, prg, depth, tweak_base=0, crhf=DEFAULT_CRHF):
    """Run SPCOT as the receiver; returns ``v`` with the alpha-slot fixed up.

    The returned vector satisfies ``w = v XOR one_hot(alpha) * Delta``
    against the sender's ``w``.
    """
    m = prg.arity
    digits = alpha_digits(alpha, m, depth)
    recon = PuncturedReconstructor(prg, depth, digits)
    for level_idx in range(1, depth + 1):
        digit = digits[level_idx - 1]
        tweak = tweak_base + level_idx * _LEVEL_TWEAK_STRIDE
        if m == 2:
            cot = pool.take_receiver(1)
            choice = np.array([1 - digit], dtype=np.uint8)
            known = ot_receive_from_cot(channel, cot, choice, tweak_base=tweak, crhf=crhf)
            recon.feed_level({1 - digit: known})
        else:
            kt_depth = log_base(m, 2)
            kt_digits = alpha_digits(digit, 2, kt_depth)
            kt_recon = PuncturedReconstructor(_KEY_TREE_PRG, kt_depth, kt_digits)
            for kt_level in range(1, kt_depth + 1):
                kt_digit = kt_digits[kt_level - 1]
                cot = pool.take_receiver(1)
                choice = np.array([1 - kt_digit], dtype=np.uint8)
                known = ot_receive_from_cot(
                    channel, cot, choice, tweak_base=tweak + kt_level, crhf=crhf
                )
                kt_recon.feed_level({1 - kt_digit: known})
            keys, _ = kt_recon.leaves()
            masked = channel.recv_blocks()  # (m, 2)
            mask_tweaks = np.arange(m, dtype=np.uint64) + np.uint64(tweak + _MASK_TWEAK_OFFSET)
            unmasked = blocks.xor(masked, crhf.hash_tweaked(keys, mask_tweaks))
            recon.feed_level({j: unmasked[j] for j in range(m) if j != digit})
    v, hole = recon.leaves()
    psi = channel.recv_blocks()
    # v[hole] is currently zero, so the reduce covers exactly the known leaves.
    v[hole] = blocks.xor(psi, blocks.xor_reduce(v)).reshape(2)
    return v


def mpcot_send_sequential(channel, pool, delta, prg, n, t, rng, crhf=DEFAULT_CRHF):
    """Sender side of MPCOT, one tree after the other."""
    out = blocks.zeros(n)
    offset = 0
    for tree_idx, size in enumerate(block_sizes(n, t)):
        leaves = spcot_send(
            channel, pool, delta, prg, tree_depth_for(size, prg.arity), rng,
            tweak_base=tree_idx * _TREE_TWEAK_STRIDE, crhf=crhf,
        )
        out[offset : offset + size] = leaves[:size]
        offset += size
    return out


def mpcot_receive_sequential(channel, pool, alphas, prg, n, t, crhf=DEFAULT_CRHF):
    """Receiver side of MPCOT, one tree after the other; returns (u, v)."""
    u = np.zeros(n, dtype=np.uint8)
    v = blocks.zeros(n)
    offset = 0
    for tree_idx, size in enumerate(block_sizes(n, t)):
        leaves = spcot_receive(
            channel, pool, int(alphas[tree_idx]), prg, tree_depth_for(size, prg.arity),
            tweak_base=tree_idx * _TREE_TWEAK_STRIDE, crhf=crhf,
        )
        v[offset : offset + size] = leaves[:size]
        u[offset + alphas[tree_idx]] = 1
        offset += size
    return u, v


# -- ChaCha: the RFC 8439 round structure, one (n,) array per state word --

_U32 = np.uint32


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    """Rotate-left each uint32 lane by ``k`` bits."""
    return (x << _U32(k)) | (x >> _U32(32 - k))


def _quarter_round(state: list, a: int, b: int, c: int, d: int) -> None:
    """In-place ChaCha quarter round on state word indices a, b, c, d."""
    state[a] = state[a] + state[b]
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = state[c] + state[d]
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] = state[a] + state[b]
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] = state[c] + state[d]
    state[b] = _rotl(state[b] ^ state[c], 7)


def _double_round(state: list) -> None:
    """One ChaCha double round: 4 column rounds then 4 diagonal rounds."""
    _quarter_round(state, 0, 4, 8, 12)
    _quarter_round(state, 1, 5, 9, 13)
    _quarter_round(state, 2, 6, 10, 14)
    _quarter_round(state, 3, 7, 11, 15)
    _quarter_round(state, 0, 5, 10, 15)
    _quarter_round(state, 1, 6, 11, 12)
    _quarter_round(state, 2, 7, 8, 13)
    _quarter_round(state, 3, 4, 9, 14)


def chacha_core_reference(initial: np.ndarray, rounds: int) -> np.ndarray:
    """ChaCha permutation + feed-forward on (n, 16) uint32 states."""
    work = [initial[:, i].copy() for i in range(16)]
    for _ in range(rounds // 2):
        _double_round(work)
    out = np.empty_like(initial)
    for i in range(16):
        out[:, i] = work[i] + initial[:, i]
    return out


# -- LPN: gather a chunk's d rows at once, XOR-reduce them --

LPN_CHUNK_ROWS = 1 << 16


def encode_blocks_reference(matrix, vec, addend):
    """Block kernel: ``A * vec XOR addend`` over GF(2^128)."""
    out = np.empty_like(addend)
    for start in range(0, matrix.n, LPN_CHUNK_ROWS):
        stop = min(start + LPN_CHUNK_ROWS, matrix.n)
        gathered = vec[matrix.indices[start:stop]]  # (rows, d, 2)
        acc = np.bitwise_xor.reduce(gathered, axis=1)
        out[start:stop] = np.bitwise_xor(acc, addend[start:stop])
    return out


def encode_bits_reference(matrix, bits, addend_bits):
    """Bit kernel: ``A * bits XOR addend_bits`` over GF(2)."""
    out = np.empty(matrix.n, dtype=np.uint8)
    for start in range(0, matrix.n, LPN_CHUNK_ROWS):
        stop = min(start + LPN_CHUNK_ROWS, matrix.n)
        gathered = bits[matrix.indices[start:stop]]  # (rows, d)
        acc = np.bitwise_xor.reduce(gathered, axis=1)
        out[start:stop] = acc ^ addend_bits[start:stop]
    return out


# -- AES: one (n,) array per state column, bytes shifted and masked out --

_T0, _T1, _T2, _T3 = _build_tables()
_SBOX_U32 = _SBOX.astype(np.uint32)
_AES_ROUNDS = 10


def aes_encrypt_blocks_reference(key: bytes, data: np.ndarray) -> np.ndarray:
    """Encrypt a block array (shape (n, 2) uint64) under ``key``."""
    w = blocks.to_uint32(data)
    n = w.shape[0]
    rk = expand_key(key)
    s0 = w[:, 0] ^ rk[0, 0]
    s1 = w[:, 1] ^ rk[0, 1]
    s2 = w[:, 2] ^ rk[0, 2]
    s3 = w[:, 3] ^ rk[0, 3]
    mask = np.uint32(0xFF)
    for rnd in range(1, _AES_ROUNDS):
        t0 = (
            _T0[s0 & mask]
            ^ _T1[(s1 >> np.uint32(8)) & mask]
            ^ _T2[(s2 >> np.uint32(16)) & mask]
            ^ _T3[s3 >> np.uint32(24)]
            ^ rk[rnd, 0]
        )
        t1 = (
            _T0[s1 & mask]
            ^ _T1[(s2 >> np.uint32(8)) & mask]
            ^ _T2[(s3 >> np.uint32(16)) & mask]
            ^ _T3[s0 >> np.uint32(24)]
            ^ rk[rnd, 1]
        )
        t2 = (
            _T0[s2 & mask]
            ^ _T1[(s3 >> np.uint32(8)) & mask]
            ^ _T2[(s0 >> np.uint32(16)) & mask]
            ^ _T3[s1 >> np.uint32(24)]
            ^ rk[rnd, 2]
        )
        t3 = (
            _T0[s3 & mask]
            ^ _T1[(s0 >> np.uint32(8)) & mask]
            ^ _T2[(s1 >> np.uint32(16)) & mask]
            ^ _T3[s2 >> np.uint32(24)]
            ^ rk[rnd, 3]
        )
        s0, s1, s2, s3 = t0, t1, t2, t3
    # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
    sb = _SBOX_U32
    o0 = (
        sb[s0 & mask]
        | (sb[(s1 >> np.uint32(8)) & mask] << np.uint32(8))
        | (sb[(s2 >> np.uint32(16)) & mask] << np.uint32(16))
        | (sb[s3 >> np.uint32(24)] << np.uint32(24))
    ) ^ rk[10, 0]
    o1 = (
        sb[s1 & mask]
        | (sb[(s2 >> np.uint32(8)) & mask] << np.uint32(8))
        | (sb[(s3 >> np.uint32(16)) & mask] << np.uint32(16))
        | (sb[s0 >> np.uint32(24)] << np.uint32(24))
    ) ^ rk[10, 1]
    o2 = (
        sb[s2 & mask]
        | (sb[(s3 >> np.uint32(8)) & mask] << np.uint32(8))
        | (sb[(s0 >> np.uint32(16)) & mask] << np.uint32(16))
        | (sb[s1 >> np.uint32(24)] << np.uint32(24))
    ) ^ rk[10, 2]
    o3 = (
        sb[s3 & mask]
        | (sb[(s0 >> np.uint32(8)) & mask] << np.uint32(8))
        | (sb[(s1 >> np.uint32(16)) & mask] << np.uint32(16))
        | (sb[s2 >> np.uint32(24)] << np.uint32(24))
    ) ^ rk[10, 3]
    out = np.empty((n, 4), dtype=np.uint32)
    out[:, 0] = o0
    out[:, 1] = o1
    out[:, 2] = o2
    out[:, 3] = o3
    return blocks.from_uint32(out)


def crhf_hash_reference(key: bytes, x: np.ndarray, tweaks=None) -> np.ndarray:
    """MMO hash ``AES(s) XOR s`` of ``s = sigma(x)``, the optional per-block
    tweak XORed into x's high half first."""
    tweaked = x.copy()
    if tweaks is not None:
        tweaked[:, 1] ^= np.asarray(tweaks, dtype=np.uint64)
    s = np.empty_like(tweaked)  # sigma(a || b) = (a XOR b) || a
    s[:, 0] = tweaked[:, 0] ^ tweaked[:, 1]
    s[:, 1] = tweaked[:, 0]
    return blocks.xor(aes_encrypt_blocks_reference(key, s), s)


def bit_leaf_triples(n_elements: int, bits: int) -> int:
    """Bit triples the bit-leaf reference consumes: ``2(l-1) -
    popcount(l-1)`` per element."""
    return (2 * (bits - 1) - bin(bits - 1).count("1")) * n_elements


def _bit_levels(values: np.ndarray, bits: int) -> np.ndarray:
    """``(bits, n)`` uint8 bit matrix, row 0 the most significant bit."""
    positions = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    return ((values[None, :] >> positions[:, None]) & np.uint64(1)).astype(np.uint8)


def _tree_widths(leaves: int) -> list:
    widths, m = [], leaves
    while m > 1:
        widths.append(m)
        m = (m + 1) // 2
    return widths


def _fold(channel, triples, gt, eq, party):
    """Fold ``(bits, n)`` leaf shares MSB-first into the share of gt;
    ``eq`` holds every row but the last."""
    n = gt.shape[1]
    for m in _tree_widths(gt.shape[0]):
        pairs, keep = m // 2, (m - 1) // 2
        lhs = np.concatenate([eq[0 : 2 * pairs : 2], eq[0 : 2 * keep : 2]])
        rhs = np.concatenate([gt[1 : 2 * pairs : 2], eq[1 : 2 * keep : 2]])
        prod = and_shared(channel, triples, lhs.reshape(-1), rhs.reshape(-1), party)
        prod = prod.reshape(pairs + keep, n)
        gt = np.concatenate([gt[0 : 2 * pairs : 2] ^ prod[:pairs], gt[2 * pairs :]])
        eq = prod[pairs:]
    return gt[0]


def millionaire_p0_reference(channel, x_private, bits, pool, triples, rng, tweak_base=0):
    """P0 side; returns its XOR share of [Y > X]."""
    x_levels = _bit_levels(np.asarray(x_private, dtype=np.uint64), bits)
    not_x = x_levels ^ 1
    # t = (NOT x_i) * y_i via OT: P0 offers (r, r XOR NOT x_i), keeps r.
    r = rng.integers(0, 2, not_x.shape, dtype=np.uint8)
    ot_send_from_cot(
        channel, pool.take_sender(r.size), r.reshape(-1), (r ^ not_x).reshape(-1),
        tweak_base=tweak_base, bits=1,
    )
    return _fold(channel, triples, r, not_x[:-1], party=0)


def millionaire_p1_reference(channel, y_private, bits, pool, triples, tweak_base=0):
    """P1 side; returns its XOR share of [Y > X]."""
    y_levels = _bit_levels(np.asarray(y_private, dtype=np.uint64), bits)
    t = ot_receive_from_cot(
        channel, pool.take_receiver(y_levels.size), y_levels.reshape(-1),
        tweak_base=tweak_base, bits=1,
    )
    t = t.astype(np.uint8).reshape(y_levels.shape)
    return _fold(channel, triples, t, y_levels[:-1], party=1)
