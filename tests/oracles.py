"""Reference implementations the shipped protocols are compared against.

``spcot_send`` / ``spcot_receive`` run ONE SPCOT instance the way the
protocol is usually written down: level by level, one derandomized OT
(and, for arity > 2, one key-tree transfer plus one masked-sums
message) per GGM level, each with its own channel round trip.
``mpcot_send_sequential`` / ``mpcot_receive_sequential`` run the t
trees of a multi-point execution one after the other through them.

The shipped one-shot path (``repro.spcot.protocol.spcot_*_batch`` under
``repro.spcot.mpcot``) must reproduce these outputs bit for bit from
the same rng state, with the same COT consumption.  The message
schedule differs, and so does the PRG core-call count: these build full
trees, while the shipped path never computes a node that has no kept
leaf below it (``repro.spcot.mpcot.mpcot_prg_calls``).  The tweak layout and
the key-tree PRG are spelled out here, not imported, so the comparison
also pins the shipped schedule.

``expand_full``, ``PuncturedReconstructor`` and ``reconstruct_punctured``
are the single-tree GGM expansion and level-by-level punctured
reconstruction these SPCOT references run on; the shipped path uses
the batched, pruned forms in ``repro.spcot.ggm``.

``chacha_tree_expand_reference`` builds a tree PRG's children state by
state from the RFC layout over ``chacha_core_reference``.

``chacha_core_reference`` and ``encode_blocks_reference`` /
``encode_bits_reference`` are the numpy formulations ``repro.crypto.
chacha`` and ``repro.lpn.encode`` shipped before their in-place kernels
(one ``(n,)`` array per ChaCha state word; gather all ``d`` rows, then
``np.bitwise_xor.reduce``), kept word for word: the kernels must match
them bit for bit.  ``aes_encrypt_blocks_reference`` is the numpy
FIPS-197 AES that ``repro.crypto.aes`` shipped before it moved onto
libcrypto: T-tables over one ``(n,)`` array per state column, bytes
pulled out with ``>>`` and ``& 0xFF``, with its own S-box (built from
GF(2^8) inversion), T-tables and key schedule (``expand_key``).  It is
the one AES here that does not call the library.  ``crhf_hash_reference``
is the MMO hash written out step by step (copy, tweak, sigma, encrypt,
XOR) over it.

``millionaire_p0_reference`` / ``millionaire_p1_reference`` are the
bit-leaf comparison ``repro.mpc.compare`` shipped before its 4-bit
digit leaves: one leaf per bit level, ``t_i = (NOT x_i) AND y_i`` by one
1-bit-lane OT per level (all levels in one exchange, tweaks
``tweak_base + j*n + i`` for the j-th level from the MSB) and ``eq_i``
free, folded by the same log-depth AND tree over ``l`` leaves
(:func:`bit_leaf_triples` triples, ``l*n`` COTs).  The shipped
comparison must reconstruct to the same ``[Y > X]``; shares, COT and
triple counts and wire bytes differ.

``gilboa_send_reference`` / ``gilboa_receive_reference`` and
``generate_matrix_triples_reference`` are the Gilboa path
``repro.mpc`` shipped before it ran at the ring's lane dtype: every
pad, payload and share a uint64, one ``hash_tweaked`` call per
``lanes``-wide pad slice (``expand_ring_pads_reference``), the sender
hashing ``z XOR d*Delta`` and ``z XOR (1-d)*Delta`` separately, and
each cross term reduced by ``np.add.at`` over its COT rows.  The
shipped path must reproduce their shares and frames bit for bit.

``P256Reference`` is affine arithmetic on the P-256 curve in pure
Python (the point at infinity is ``None``): addition and doubling by
the chord-and-tangent formulas, double-and-add multiplication, SEC1
compression and decompression.  Its constants (p, a, b, n and the
generator) are read back from libcrypto through
``repro.crypto.group.DEFAULT_GROUP``, and the generator is checked to
lie on the curve and to have order n, so no external test vector is
needed.  ``repro.crypto.group``'s multiplications, additions, encoder
and decoder must agree with it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.crypto import blocks
from repro.crypto.crhf import DEFAULT_CRHF
from repro.crypto.prg import AesTreePrg, TreePrg
from repro.errors import ParameterError
from repro.mpc.triples import MatrixTriples, _bit_decompose, and_shared, ring_mask_u64
from repro.ot.channel import lane_bytes
from repro.ot.ot_from_cot import ot_receive_from_cot, ot_send_from_cot
from repro.spcot.ggm import alpha_digits, level_sums
from repro.spcot.mpcot import block_sizes, tree_depth_for
from repro.utils.bitops import log_base

_KEY_TREE_PRG = AesTreePrg(arity=2, master_key=b"ironman-key-tree")
_TREE_TWEAK_STRIDE = 1 << 20  # per tree
_LEVEL_TWEAK_STRIDE = 64  # per GGM level inside a tree's stride
_MASK_TWEAK_OFFSET = 32  # a level's masked sums, above its key-tree OT pads


# -- GGM: one tree, level by level --


def expand_full(prg: TreePrg, seed: np.ndarray, depth: int) -> list:
    """Expand ``seed`` into all tree levels.

    Returns a list of block arrays: ``levels[i]`` has ``arity ** i``
    rows; ``levels[0]`` is the seed itself.
    """
    if depth < 1:
        raise ParameterError("tree depth must be >= 1")
    seed = np.asarray(seed, dtype=blocks.BLOCK_DTYPE).reshape(1, 2)
    levels = [seed]
    for lvl in range(depth):
        levels.append(prg.expand(levels[-1], lvl))
    return levels


class PuncturedReconstructor:
    """Receiver-side level-by-level tree reconstruction.

    Feed it, per level, the known sums (all slots except the punctured
    digit); it maintains the partially known level and the hole
    position.  After ``depth`` levels, :attr:`nodes` holds every leaf
    except index :attr:`hole` (which is zero-filled).
    """

    def __init__(self, prg: TreePrg, depth: int, digits: list):
        self.prg = prg
        self.arity = prg.arity
        self.depth = depth
        self.digits = list(digits)
        if len(self.digits) != depth:
            raise ParameterError("digit count must equal tree depth")
        self.level = 0
        self.nodes = None
        self.hole = None

    def feed_level(self, known_sums: dict) -> None:
        """Consume level ``self.level + 1`` given sums for slots != digit.

        Args:
            known_sums: mapping slot j -> (1, 2) block, defined for every
                j in [0, arity) except the punctured digit of this level.
        """
        m = self.arity
        digit = self.digits[self.level]
        expected_slots = set(range(m)) - {digit}
        if set(known_sums) != expected_slots:
            raise ParameterError(
                f"level {self.level + 1} needs sums for slots {sorted(expected_slots)}"
            )
        if self.level == 0:
            nodes = blocks.zeros(m)
            for j, value in known_sums.items():
                nodes[j] = value.reshape(2)
            self.nodes = nodes
            self.hole = digit
        else:
            children = self.prg.expand(self.nodes, self.level)
            # The hole parent's children came from expanding a zero stand-in;
            # blank them so the slot sums below only cover known nodes.
            start = self.hole * m
            children[start : start + m] = 0
            partial = level_sums(children, m)
            for j, value in known_sums.items():
                children[start + j] = blocks.xor(value.reshape(1, 2), partial[j : j + 1])
            self.nodes = children
            self.hole = self.hole * m + digit
        self.level += 1

    @property
    def done(self) -> bool:
        return self.level == self.depth

    def leaves(self) -> tuple:
        """Return (leaves with zero at the hole, hole index)."""
        if not self.done:
            raise ParameterError("tree reconstruction is not finished")
        return self.nodes, self.hole


def reconstruct_punctured(
    prg: TreePrg, depth: int, alpha: int, sums_per_level: list
) -> tuple:
    """Convenience wrapper: reconstruct all leaves except ``alpha``.

    ``sums_per_level[i]`` is the dict of known slot sums for level i+1.
    """
    recon = PuncturedReconstructor(prg, depth, alpha_digits(alpha, prg.arity, depth))
    for known in sums_per_level:
        recon.feed_level(known)
    return recon.leaves()


# -- SPCOT / MPCOT: one tree, one round trip per level --


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
            masked = channel.recv_blocks(m)
            mask_tweaks = np.arange(m, dtype=np.uint64) + np.uint64(tweak + _MASK_TWEAK_OFFSET)
            unmasked = blocks.xor(masked, crhf.hash_tweaked(keys, mask_tweaks))
            recon.feed_level({j: unmasked[j] for j in range(m) if j != digit})
    v, hole = recon.leaves()
    psi = channel.recv_blocks(1)
    # v[hole] is currently zero, so the reduce covers exactly the known leaves.
    v[hole] = blocks.xor(psi, blocks.xor_reduce(v)).reshape(2)
    return v


def mpcot_send_sequential(channel, pool, delta, prg, n, t, rng, crhf=DEFAULT_CRHF, buffers=None):
    """Sender side of MPCOT, one tree after the other (``buffers`` is
    taken for the shipped signature's sake and not used)."""
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


def mpcot_receive_sequential(channel, pool, alphas, prg, n, t, crhf=DEFAULT_CRHF, buffers=None):
    """Receiver side of MPCOT, one tree after the other; returns (u, v)
    (``buffers`` as for the sender)."""
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


def chacha_tree_expand_reference(nodes, level, arity, rounds, salt=b"ironman-chacha"):
    """``ChaChaTreePrg.expand`` spelled out state by state: parent ``p``'s
    lane ``j`` is the RFC layout constants | seed words | seed words XOR
    salt | counter 0 | nonce (level, j, salt word 0), and its children
    are the first ``arity`` 128-bit blocks of its lanes' outputs."""
    salt_words = np.frombuffer(hashlib.sha256(salt).digest()[:16], dtype="<u4")
    lanes = -(-arity // 4)
    seed_words = np.ascontiguousarray(nodes).view(np.uint32).reshape(-1, 4)
    states = np.zeros((seed_words.shape[0], lanes, 16), dtype=np.uint32)
    states[:, :, 0:4] = [0x61707865, 0x3320646E, 0x79622D32, 0x6B206574]
    states[:, :, 4:8] = seed_words[:, None, :]
    states[:, :, 8:12] = (seed_words ^ salt_words)[:, None, :]
    states[:, :, 13] = level
    states[:, :, 14] = np.arange(lanes)
    states[:, :, 15] = salt_words[0]
    stream = chacha_core_reference(states.reshape(-1, 16), rounds)
    children = stream.reshape(-1, lanes * 4, 4)[:, :arity]
    return np.ascontiguousarray(children).view(np.uint64).reshape(-1, 2)


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


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Full GF(2^8) multiplication (schoolbook, used only at import time)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> np.ndarray:
    """Construct the AES S-box from inversion + affine map (FIPS-197 5.1.1)."""
    # Multiplicative inverses via exhaustive search (256 elements, import-time).
    inv = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if _gf_mul(x, y) == 1:
                inv[x] = y
                break
    sbox = np.zeros(256, dtype=np.uint8)
    for x in range(256):
        b = inv[x]
        res = 0x63
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
            ) & 1
            res ^= bit << i
        sbox[x] = res
    return sbox


_SBOX = _build_sbox()

_RCON = np.array([0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36], dtype=np.uint8)


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the four encryption T-tables in little-endian packing.

    With state columns packed little-endian (byte r of a column lives at
    bits [8r, 8r+8)), the contribution of input byte ``x`` feeding
    MixColumns row slot ``i`` is ``T_i[x]``.
    """
    s = _SBOX.astype(np.uint32)
    s2 = np.array([_gf_mul(int(v), 2) for v in _SBOX], dtype=np.uint32)
    s3 = np.array([_gf_mul(int(v), 3) for v in _SBOX], dtype=np.uint32)
    t0 = s2 | (s << 8) | (s << 16) | (s3 << 24)
    t1 = s3 | (s2 << 8) | (s << 16) | (s << 24)
    t2 = s | (s3 << 8) | (s2 << 16) | (s << 24)
    t3 = s | (s << 8) | (s3 << 16) | (s2 << 24)
    return t0, t1, t2, t3


def expand_key(key: bytes) -> np.ndarray:
    """AES-128 key schedule.

    Returns an array of shape (11, 4) uint32: one little-endian-packed
    round key per round, matching the state packing used by
    :func:`aes_encrypt_blocks_reference`.
    """
    if len(key) != 16:
        raise ParameterError(f"AES-128 key must be 16 bytes, got {len(key)}")
    words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [int(_SBOX[b]) for b in temp]  # SubWord
            temp[0] ^= int(_RCON[i // 4 - 1])
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    packed = np.zeros((11, 4), dtype=np.uint32)
    for rnd in range(11):
        for col in range(4):
            b = words[4 * rnd + col]
            packed[rnd, col] = b[0] | (b[1] << 8) | (b[2] << 16) | (b[3] << 24)
    return packed


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


# -- Gilboa multiplication at uint64, one hash call per pad slice --

_PAD_STRIDE = np.uint64(1) << np.uint64(48)  # per extra hash of one COT


def expand_ring_pads_reference(x, tweaks, width, bits, crhf):
    """``(rows, width)`` uint64 ring pads: hash j of a block (tweak +
    j * 2^48) fills pad columns ``[j*lanes, (j+1)*lanes)`` with its
    little-endian lanes of ``lane_bytes(bits)``, one call per j."""
    lane = lane_bytes(bits)
    lanes = blocks.BLOCK_BYTES // lane
    out = np.empty((x.shape[0], width), dtype=np.uint64)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for j in range(-(-width // lanes)):
        h = crhf.hash_tweaked(x, tweaks + np.uint64(j) * _PAD_STRIDE)
        cols = out[:, j * lanes : (j + 1) * lanes]  # the last hash may be cut short
        cols[...] = h.view(f"<u{lane}")[:, : cols.shape[1]]
    out &= ring_mask_u64(bits)
    return out


def gilboa_send_reference(
    channel, cots, corr_fn, width, bits, tweaks, chunk_rows, crhf=DEFAULT_CRHF
):
    """Sender: both pads expanded from ``z XOR (j XOR d) * Delta``;
    yields ``(start, -pad0)`` uint64 chunks."""
    mask = ring_mask_u64(bits)
    d = channel.recv_lanes(len(cots), 1)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for start in range(0, len(cots) or 1, chunk_rows):
        stop = min(start + chunk_rows, len(cots))
        corr = np.ascontiguousarray(corr_fn(start, stop), dtype=np.uint64)
        z, d_chunk, tw = cots.z[start:stop], d[start:stop], tweaks[start:stop]
        pad0 = expand_ring_pads_reference(
            blocks.xor(z, blocks.mul_bit(cots.delta, d_chunk)), tw, width, bits, crhf
        )
        pad1 = expand_ring_pads_reference(
            blocks.xor(z, blocks.mul_bit(cots.delta, d_chunk ^ 1)), tw, width, bits, crhf
        )
        channel.send_lanes((corr + pad0 + pad1) & mask, bits)
        yield start, (np.uint64(0) - pad0) & mask


def gilboa_receive_reference(
    channel, cots, choices, width, bits, tweaks, chunk_rows, crhf=DEFAULT_CRHF
):
    """Receiver: yields ``(start, share)`` uint64 chunks, the pad or
    the unpadded correction by choice."""
    choices = np.asarray(choices, dtype=np.uint8) & 1
    mask = ring_mask_u64(bits)
    channel.send_lanes(cots.x ^ choices, 1)
    tweaks = np.asarray(tweaks, dtype=np.uint64)
    for start in range(0, len(cots) or 1, chunk_rows):
        stop = min(start + chunk_rows, len(cots))
        pad_mine = expand_ring_pads_reference(
            cots.y[start:stop], tweaks[start:stop], width, bits, crhf
        )
        c = channel.recv_lanes((stop - start) * width, bits).reshape(-1, width)
        picked = choices[start:stop, None].astype(bool)
        yield start, np.where(picked, (c - pad_mine) & mask, pad_mine)


def generate_matrix_triples_reference(
    channel, dims, bits, pool, rng, party, ot_sender=1, tweak_base=0, chunk_rows=1 << 12
):
    """A matrix triple through the references above: payload rows
    gathered by fancy index at uint64, each cross term reduced by
    ``np.add.at`` over its COT rows."""
    m, k, n = dims.m, dims.k, dims.n
    mask = ring_mask_u64(bits)
    a = rng.integers(0, 1 << bits, (m, k), dtype=np.uint64)
    b = rng.integers(0, 1 << bits, (k, n), dtype=np.uint64)
    t_act, t_wgt = m * k * bits, k * n * bits
    tweaks_act = np.arange(tweak_base, tweak_base + t_act, dtype=np.uint64)
    tweaks_wgt = np.arange(tweak_base + t_act, tweak_base + t_act + t_wgt, dtype=np.uint64)
    shifts = np.uint64(1) << np.arange(bits, dtype=np.uint64)

    def act_corr(start, stop):  # row (i, j, t): B[j, :] << t
        r = np.arange(start, stop)
        return (b[(r // bits) % k, :] * shifts[r % bits][:, None]) & mask

    def wgt_corr(start, stop):  # row (j, l, t): A[:, j] << t
        r = np.arange(start, stop)
        return (a.T[r // (n * bits), :] * shifts[r % bits][:, None]) & mask

    def reduce_term(chunks, out_rows, width, row_of):
        acc = np.zeros((out_rows, width), dtype=np.uint64)
        for start, share in chunks:
            np.add.at(acc, row_of(np.arange(start, start + share.shape[0])), share)
        return acc

    if party != ot_sender:
        chunks = gilboa_receive_reference(
            channel, pool.take_receiver(t_act), _bit_decompose(a, bits), n, bits, tweaks_act,
            chunk_rows,
        )
        cross_act = reduce_term(chunks, m, n, lambda r: r // (k * bits))
        chunks = gilboa_receive_reference(
            channel, pool.take_receiver(t_wgt), _bit_decompose(b, bits), m, bits, tweaks_wgt,
            chunk_rows,
        )
    else:
        chunks = gilboa_send_reference(
            channel, pool.take_sender(t_act), act_corr, n, bits, tweaks_act, chunk_rows
        )
        cross_act = reduce_term(chunks, m, n, lambda r: r // (k * bits))
        chunks = gilboa_send_reference(
            channel, pool.take_sender(t_wgt), wgt_corr, m, bits, tweaks_wgt, chunk_rows
        )
    cross_wgt = reduce_term(chunks, n, m, lambda r: (r // bits) % n).T
    return MatrixTriples(a, b, (a @ b + cross_act + cross_wgt) & mask, bits)


# -- P-256: affine point arithmetic --


class P256Reference:
    """Affine P-256 in pure Python; points are ``(x, y)`` or ``None``."""

    def __init__(self, group):
        self.p, self.a, self.b, self.order = group.p, group.a, group.b, group.order
        if self.p % 4 != 3:
            raise ParameterError("square roots below assume p = 3 (mod 4)")
        self.g = self.decompress(group.point_bytes(group.generator))
        if self.g is None or not self.on_curve(self.g) or self.mul(self.g, self.order):
            raise ParameterError("libcrypto's generator is not of order n on the curve")

    def on_curve(self, point) -> bool:
        if point is None:
            return True
        x, y = point
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def neg(self, point):
        return None if point is None else (point[0], -point[1] % self.p)

    def add(self, u, v):
        p = self.p
        if u is None:
            return v
        if v is None:
            return u
        (x1, y1), (x2, y2) = u, v
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            slope = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        return x3, (slope * (x1 - x3) - y1) % p

    def mul(self, point, k: int):
        acc = None
        for bit in bin(k)[2:] if k > 0 else "":
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, point)
        return acc

    def compress(self, point) -> bytes:
        if point is None:
            return b"\x00"
        x, y = point
        return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")

    def sqrt(self, value: int):
        """A square root of ``value`` mod p, or None when there is none."""
        root = pow(value, (self.p + 1) // 4, self.p)
        return root if root * root % self.p == value % self.p else None

    def decompress(self, data: bytes):
        """The point a 33-byte compressed encoding names, or None when it
        names none (bad length or prefix, x >= p, no square root)."""
        if len(data) != 33 or data[0] not in (2, 3):
            return None
        x = int.from_bytes(data[1:], "big")
        if x >= self.p:
            return None
        y = self.sqrt(x * x * x + self.a * x + self.b)
        if y is None:
            return None
        return x, y if y & 1 == data[0] - 2 else self.p - y
