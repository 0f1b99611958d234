"""The cold start: kappa = 128 PKC OTs + IKNP-style COT extension.

Properties of ``base_cot_send`` / ``base_cot_receive`` beyond kappa
COTs, of the two kernels they add (``stream_expand``,
``transpose_128``), and the counting tests that pin what the change is
for: one Ferret setup is exactly 128 public-key OTs, and a sharded
service start is 128 per direction in the parents and none in the
workers.
"""

import queue
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import blocks, kernels
from repro.crypto.chacha import keystream
from repro.crypto.prg import stream_expand
from repro.errors import ParameterError
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.ot import base_ot
from repro.ot.base_ot import KAPPA, base_cot_receive, base_cot_send
from repro.ot.channel import LocalChannel, run_concurrently, run_pair
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.runtime.shard import _mint_base_cots, _worker_main

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")


def naive_transpose(rows: np.ndarray, n: int) -> np.ndarray:
    """One byte per bit, ``bits.T``, pack again."""
    bits = np.unpackbits(rows, axis=1, bitorder="little")[:, :n]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def base_cot_pair(n, seed):
    """(delta, choices, r, y) of one extension run from ``seed`` alone."""
    s_rng = np.random.default_rng(seed)
    r_rng = np.random.default_rng(seed + 1)
    delta = blocks.random_blocks(1, s_rng)
    choices = r_rng.integers(0, 2, n).astype(np.uint8)
    r, y, _, _ = run_pair(
        lambda ch: base_cot_send(ch, n, delta, s_rng),
        lambda ch: base_cot_receive(ch, choices, r_rng),
    )
    return delta, choices, r, y


class TestTransposeKernel:
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=8, seed=0)
    @example(n=KAPPA + 1, seed=0)
    def test_packed_transpose_equals_naive_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 256, (KAPPA, (n + 7) // 8), dtype=np.uint8)
        got = kernels.transpose_128(rows, n)
        assert got.shape == (n, 2) and got.dtype == blocks.BLOCK_DTYPE
        assert np.array_equal(got, naive_transpose(rows, n))

    def test_bit_i_of_block_j_is_bit_j_of_row_i(self):
        rows = np.zeros((KAPPA, 2), dtype=np.uint8)
        rows[77, 1] = 1 << 3  # row 77, column 11
        out = kernels.transpose_128(rows, 16)
        assert blocks.to_int(out[11]) == 1 << 77
        assert not out[np.arange(16) != 11].any()

    @pytest.mark.parametrize("shape", [(127, 4), (128, 3), (128, 5)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ParameterError):
            kernels.transpose_128(np.zeros(shape, dtype=np.uint8), 32)


class TestStreamExpand:
    def test_rows_are_chacha8_keystreams_of_their_seed(self, rng):
        seeds = blocks.random_blocks(5, rng)
        out = stream_expand(seeds, 150)
        assert out.shape == (5, 150) and out.dtype == np.uint8
        for seed, row in zip(seeds, out):
            key = blocks.to_bytes(seed[None, :]) * 2
            assert row.tobytes() == keystream(key, b"cot-ext-strm", 150, rounds=8)

    def test_prefix_stable_across_lengths(self, rng):
        seeds = blocks.random_blocks(3, rng)
        assert np.array_equal(stream_expand(seeds, 200)[:, :70], stream_expand(seeds, 70))


class TestExtension:
    @settings(max_examples=10)
    @given(n=st.integers(1, 4096), seed=st.integers(0, 2**20))
    @example(n=KAPPA, seed=1)  # last size that is plain PKC
    @example(n=KAPPA + 1, seed=1)  # first size that extends
    @example(n=1001, seed=1)  # not a multiple of 8
    @example(n=4096, seed=1)
    def test_correlation_holds(self, n, seed):
        delta, choices, r, y = base_cot_pair(n, seed)
        assert r.shape == y.shape == (n, 2)
        assert verify_cot(CotSenderBatch(delta, r), CotReceiverBatch(choices, y))

    def test_same_seeds_give_byte_identical_outputs(self):
        first = base_cot_pair(777, seed=5)
        second = base_cot_pair(777, seed=5)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
        other = base_cot_pair(777, seed=6)
        assert first[3].tobytes() != other[3].tobytes()

    def test_sender_rng_untouched_beyond_kappa(self):
        """r is fixed by the receiver's seeds and Delta: the sender's
        generator must not advance, or every later draw would shift."""
        s_rng = np.random.default_rng(3)
        delta = blocks.random_blocks(1, s_rng)
        before = s_rng.bit_generator.state
        choices = np.ones(300, dtype=np.uint8)
        run_pair(
            lambda ch: base_cot_send(ch, 300, delta, s_rng),
            lambda ch: base_cot_receive(ch, choices, np.random.default_rng(4)),
        )
        assert s_rng.bit_generator.state == before

    def both_directions(self, chan_a, chan_b, n):
        """Party a sends then receives; party b mirrors -- on ONE channel."""
        out = {}

        def party(name, channel, seed, first_sender):
            rng = np.random.default_rng(seed)
            delta = blocks.random_blocks(1, rng)
            choices = rng.integers(0, 2, n).astype(np.uint8)
            for sending in (first_sender, not first_sender):
                if sending:
                    out[name, "send"] = CotSenderBatch(
                        delta, base_cot_send(channel, n, delta, rng)
                    )
                else:
                    out[name, "recv"] = CotReceiverBatch(
                        choices, base_cot_receive(channel, choices, rng)
                    )

        run_concurrently(
            lambda: party("a", chan_a, 10, True),
            lambda: party("b", chan_b, 20, False),
            timeout=60.0,
        )
        assert verify_cot(out["a", "send"], out["b", "recv"])  # fwd
        assert verify_cot(out["b", "send"], out["a", "recv"])  # rev

    def test_fwd_then_rev_on_one_channel(self):
        chan_a, chan_b = LocalChannel.pair(timeout=30.0)
        self.both_directions(chan_a, chan_b, 500)

    def test_fwd_then_rev_over_a_mux_subchannel(self):
        base_a, base_b = LocalChannel.pair(timeout=30.0)
        mux_a, mux_b = MuxChannel(base_a, timeout=30.0), MuxChannel(base_b, timeout=30.0)
        try:
            self.both_directions(mux_a.sub("shard/hs"), mux_b.sub("shard/hs"), 500)
        finally:
            mux_a.close(), mux_b.close()


@pytest.fixture
def pkc_counts(monkeypatch):
    """Sizes of every PKC OT batch run in this process, by role."""
    counts = {"send": [], "receive": []}
    real_send, real_receive = base_ot.base_ot_send, base_ot.base_ot_receive

    def counting_send(channel, messages0, messages1, **kwargs):
        counts["send"].append(messages0.shape[0])
        return real_send(channel, messages0, messages1, **kwargs)

    def counting_receive(channel, choices, **kwargs):
        counts["receive"].append(len(choices))
        return real_receive(channel, choices, **kwargs)

    monkeypatch.setattr(base_ot, "base_ot_send", counting_send)
    monkeypatch.setattr(base_ot, "base_ot_receive", counting_receive)
    return counts


class TestPkcCounts:
    def test_one_ferret_setup_is_exactly_kappa_pkc_ots(self, pkc_counts):
        assert CFG.base_cots_needed > KAPPA
        sender, receiver = FerretSender(CFG, seed=1), FerretReceiver(CFG, seed=2)
        run_pair(sender.setup, receiver.setup)
        assert pkc_counts == {"send": [KAPPA], "receive": [KAPPA]}
        s, r, _, _ = run_pair(sender.extend, receiver.extend)
        assert verify_cot(s, r)
        assert pkc_counts == {"send": [KAPPA], "receive": [KAPPA]}

    def test_worker_loads_parent_slices_without_pkc(self, pkc_counts):
        """The shard worker entry point, run on threads so the counter
        sees it: parents mint for two shards, shard 1's pair is seeded
        from its slices and extends -- with no PKC of its own."""
        parents = FerretSender(CFG, seed=1), FerretReceiver(CFG, seed=2)
        slices0, slices1, _, _ = run_pair(
            lambda ch: _mint_base_cots(parents[0], ch, 2),
            lambda ch: _mint_base_cots(parents[1], ch, 2),
        )
        assert pkc_counts == {"send": [KAPPA], "receive": [KAPPA]}
        pkc_counts["send"].clear(), pkc_counts["receive"].clear()

        cmd = queue.Queue(), queue.Queue()
        res = queue.Queue(), queue.Queue()
        workers = [
            threading.Thread(
                target=_worker_main,
                args=(party, 1, CFG, 7, parents[0].delta, False, cmd[party], res[party]),
                daemon=True,
            )
            for party in (0, 1)
        ]
        for w in workers:
            w.start()
        try:
            kind, _, port = res[0].get(timeout=30.0)
            assert kind == "port"
            cmd[1].put(("connect", "127.0.0.1", port))
            cmd[0].put(("seed", slices0[1], None))
            cmd[1].put(("seed", slices1[1], None))
            for q in res:
                assert q.get(timeout=30.0)[0] == "ready"
            for q in cmd:
                q.put(("ext", 0, "fwd"))
            (z,) = res[0].get(timeout=60.0)[4]
            x, y = res[1].get(timeout=60.0)[4]
        finally:
            for q in cmd:
                q.put(("stop",))
            for w in workers:
                w.join(30.0)
        assert not any(w.is_alive() for w in workers)
        assert verify_cot(CotSenderBatch(parents[0].delta, z), CotReceiverBatch(x, y))
        assert pkc_counts == {"send": [], "receive": []}

    def test_two_shard_start_is_kappa_pkc_ots_per_direction(self, pkc_counts):
        """Both parents live in this process: each direction is one
        128-OT batch on its PKC-sender side and one on its PKC-receiver
        side, whatever the shard count.  (The spawned workers cannot be
        patched; the test above covers their entry point.)"""
        base_a, base_b = LocalChannel.pair(timeout=120.0)
        muxes = MuxChannel(base_a, timeout=120.0), MuxChannel(base_b, timeout=120.0)
        tuning = ServiceTuning(shards=2)
        services = [
            CorrelationService(party, muxes[party], CFG, tuning, seed=0x5AD1).start()
            for party in (0, 1)
        ]
        try:
            for svc in services:
                svc.wait_ready(120.0)
            assert pkc_counts == {"send": [KAPPA] * 2, "receive": [KAPPA] * 2}
            n = CFG.net_output + 10  # crosses a shard batch boundary
            s, r = run_concurrently(
                lambda: services[0].session("c").draw([("cot/fwd", (), n)])[0][0],
                lambda: services[1].session("c").draw([("cot/fwd", (), n)])[0][0],
                timeout=120.0,
            )
            assert verify_cot(s, r)
            assert pkc_counts == {"send": [KAPPA] * 2, "receive": [KAPPA] * 2}
        finally:
            for svc in services:
                svc.stop()
            for mux in muxes:
                mux.close()
