"""Unit tests for the typed correlation pools (runtime/pool.py)."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.crypto import blocks
from repro.errors import ServiceError
from repro.mpc.triples import BitTriples, MatrixTriples, RingTriples, dealer_matrix_triples
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot
from repro.runtime import pool as pool_module
from repro.runtime.recipes import MTRI
from repro.runtime.pool import (
    CorrelationPool,
    MatrixTriplePool,
    ReceiverCotPool,
    RingTriplePool,
    SenderCotPool,
    TriplePool,
)


def make_cot_arrays(n, seed=1):
    gen = np.random.default_rng(seed)
    delta = blocks.random_blocks(1, gen)
    z = blocks.random_blocks(n, gen)
    x = gen.integers(0, 2, n).astype(np.uint8)
    y = blocks.xor(z, blocks.mul_bit(delta, x))
    return delta, z, x, y


class TestLevelsAndWatermarks:
    def test_reserve_take_roundtrip(self):
        delta, z, _, _ = make_cot_arrays(64)
        pool = SenderCotPool("p", delta)
        pool.append(CotSenderBatch(delta, z))
        lo = pool.reserve(10)
        assert lo == 0
        batch = pool.take(lo, 10)
        assert np.array_equal(batch.z, z[:10])
        lo2 = pool.reserve(5)
        assert lo2 == 10

    def test_level_goes_negative_on_demand(self):
        pool = TriplePool("tri", low_watermark=8)
        assert pool.level == 0
        pool.reserve(20)
        assert pool.level == -20
        assert pool.needs_refill()
        assert pool.deficit >= 20

    def test_refill_event_set_below_watermark(self):
        delta, z, _, _ = make_cot_arrays(32)
        pool = SenderCotPool("p", delta, low_watermark=16, high_watermark=32)
        pool.append(CotSenderBatch(delta, z))
        assert not pool.refill.is_set()
        pool.reserve(20)  # level 12 < 16
        assert pool.refill.is_set()

    def test_try_reserve_produced_refuses_unproduced(self):
        delta, z, _, _ = make_cot_arrays(16)
        pool = SenderCotPool("p", delta)
        pool.append(CotSenderBatch(delta, z))
        assert pool.try_reserve_produced(10) == 0
        assert pool.try_reserve_produced(10) is None  # only 6 left
        assert pool.try_reserve_produced(6) == 10


class TestBlockingAndBackpressure:
    def test_take_blocks_until_produced(self):
        delta, z, _, _ = make_cot_arrays(32)
        pool = SenderCotPool("p", delta)
        lo = pool.reserve(32)
        got = {}

        def taker():
            got["batch"] = pool.take(lo, 32, timeout=10.0)

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.1)
        assert "batch" not in got  # still stalled
        pool.append(CotSenderBatch(delta, z))
        t.join(5.0)
        assert np.array_equal(got["batch"].z, z)
        assert pool.stats.stalled_draws == 1
        assert pool.stats.stall_time_s > 0
        assert pool.stats.hit_rate == 0.0

    def test_take_timeout_raises(self):
        pool = TriplePool("tri")
        lo = pool.reserve(4)
        with pytest.raises(ServiceError, match="timed out"):
            pool.take(lo, 4, timeout=0.1)

    def test_take_after_close_serves_already_produced_data(self):
        """Shutdown must not strand data that is already in the buffer:
        only takes of *unproduced* ranges fail after close."""
        delta, z, _, _ = make_cot_arrays(16)
        pool = SenderCotPool("p", delta)
        pool.append(CotSenderBatch(delta, z))
        lo = pool.reserve(10)
        pool.close()
        batch = pool.take(lo, 10)  # data existed before close
        assert np.array_equal(batch.z, z[:10])
        lo2 = pool.reserve(10)  # beyond what was ever produced
        with pytest.raises(ServiceError, match="closed"):
            pool.take(lo2, 10, timeout=0.5)

    def test_append_grows_capacity_geometrically(self):
        """Many small refills must not degrade into per-append copies of
        the whole buffer (amortized growth)."""
        pool = TriplePool("tri")
        gen = np.random.default_rng(3)
        total = 0
        for _ in range(50):
            a = gen.integers(0, 2, 37).astype(np.uint8)
            pool.append_columns((a, a, a))
            total += 37
        assert pool.produced == total
        lo = pool.reserve(total)
        t = pool.take(lo, total)
        assert len(t) == total
        # Internal buffer over-allocates (capacity >= produced).
        assert pool._columns[0].shape[0] >= total

    def test_close_wakes_blocked_taker(self):
        pool = TriplePool("tri")
        lo = pool.reserve(4)
        errors = []

        def taker():
            try:
                pool.take(lo, 4, timeout=30.0)
            except ServiceError as exc:
                errors.append(exc)

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.05)
        pool.close()
        t.join(5.0)
        assert len(errors) == 1


class TestWatermarkEdges:
    """Satellite coverage: exact-boundary refill, ranges spanning a
    refill, and backpressure timing out loudly instead of deadlocking."""

    def test_refill_fires_exactly_at_low_watermark(self):
        """needs_refill is strict: level == low is healthy, one below
        trips the event on that very reserve."""
        delta, z, _, _ = make_cot_arrays(64)
        pool = SenderCotPool("p", delta, low_watermark=16, high_watermark=64)
        pool.append(CotSenderBatch(delta, z))
        pool.reserve(48)  # level == 16 == low: no refill yet
        assert pool.level == pool.low_watermark
        assert not pool.needs_refill()
        assert not pool.refill.is_set()
        pool.reserve(1)  # level 15 < 16: the boundary crossing
        assert pool.needs_refill()
        assert pool.refill.is_set()

    def test_reserve_spanning_a_refill_boundary(self):
        """One reserved range served by two production batches must come
        back spliced in order across the append boundary."""
        pool = CorrelationPool("raw", n_columns=1)
        data = np.arange(48, dtype=np.uint64)
        pool.append_columns((data[:10],))
        lo = pool.reserve(32)  # spans well past the 10 produced
        got = {}

        def taker():
            got["cols"] = pool.take_columns(lo, 32, timeout=10.0)

        t = threading.Thread(target=taker)
        t.start()
        time.sleep(0.05)
        assert "cols" not in got
        pool.append_columns((data[10:30],))  # still one short of lo+32
        time.sleep(0.05)
        assert "cols" not in got
        pool.append_columns((data[30:48],))
        t.join(5.0)
        assert np.array_equal(got["cols"][0], data[:32])
        assert pool.stats.stalled_draws == 1

    def test_backpressure_timeout_raises_not_deadlocks(self):
        """A take the producer never satisfies raises ServiceError with
        the starved range, even when production made partial progress."""
        pool = TriplePool("tri")
        gen = np.random.default_rng(5)
        a = gen.integers(0, 2, 8).astype(np.uint8)
        lo = pool.reserve(16)
        pool.append_columns((a, a, a))  # half of the demand, never more
        start = time.monotonic()
        with pytest.raises(ServiceError, match=r"timed out waiting for \[0, 16\)"):
            pool.take(lo, 16, timeout=0.3)
        assert time.monotonic() - start < 5.0

    def test_wait_level_and_raise_watermarks(self):
        """prefill's pool contract: raise-only watermarks, blocking wait."""
        pool = TriplePool("tri", low_watermark=4, high_watermark=8)
        pool.raise_watermarks(low=32)
        pool.raise_watermarks(low=16, high=2)  # never lowers
        assert pool.low_watermark == 32
        assert pool.high_watermark >= 32
        gen = np.random.default_rng(6)
        a = gen.integers(0, 2, 32).astype(np.uint8)

        def producer():
            time.sleep(0.05)
            pool.append_columns((a, a, a))

        t = threading.Thread(target=producer)
        t.start()
        pool.wait_level(32, timeout=10.0)
        t.join(5.0)
        assert pool.level >= 32
        pool.wait_produced(32, timeout=1.0)
        with pytest.raises(ServiceError, match="timed out"):
            pool.wait_level(1000, timeout=0.1)


class TestTypedPools:
    def test_cot_pools_stay_correlated(self):
        delta, z, x, y = make_cot_arrays(48)
        sp = SenderCotPool("s", delta)
        rp = ReceiverCotPool("r")
        sp.append(CotSenderBatch(delta, z))
        rp.append(CotReceiverBatch(x, y))
        lo = sp.reserve(20)
        rp.reserve(20)
        sb = sp.take(lo, 20)
        rb = rp.take(lo, 20)
        assert verify_cot(sb, rb)

    def test_triple_pool_roundtrip(self):
        gen = np.random.default_rng(9)
        a, b = gen.integers(0, 2, 30).astype(np.uint8), gen.integers(0, 2, 30).astype(np.uint8)
        pool = TriplePool("tri")
        pool.append_columns((a, b, a & b))
        lo = pool.reserve(30)
        t = pool.take(lo, 30)
        assert isinstance(t, BitTriples)
        assert np.array_equal(t.c, t.a & t.b)

    def test_out_of_order_takes_and_trim(self, monkeypatch):
        """Sessions may take reserved ranges out of order; the buffer is
        trimmed only once the contiguous prefix is consumed."""
        monkeypatch.setattr(pool_module, "TRIM_BYTES", 64 * 8)
        pool = CorrelationPool("raw", n_columns=1)
        data = np.arange(256, dtype=np.uint64)
        pool.append_columns((data,))
        lo_a = pool.reserve(64)
        lo_b = pool.reserve(64)
        lo_c = pool.reserve(64)
        (b_vals,) = pool.take_columns(lo_b, 64)  # out of order
        assert np.array_equal(b_vals, data[64:128])
        (a_vals,) = pool.take_columns(lo_a, 64)
        (c_vals,) = pool.take_columns(lo_c, 64)
        assert np.array_equal(a_vals, data[:64])
        assert np.array_equal(c_vals, data[128:192])
        # Prefix [0, 192) was trimmed; absolute indexing still works.
        lo_d = pool.reserve(32)
        (d_vals,) = pool.take_columns(lo_d, 32)
        assert np.array_equal(d_vals, data[192:224])
        with pytest.raises(ServiceError, match="trimmed"):
            pool.take_columns(lo_a, 8)

    def test_ring_triple_pool_roundtrip(self):
        gen = np.random.default_rng(21)
        a = gen.integers(0, 1 << 16, 40, dtype=np.uint64)
        b = gen.integers(0, 1 << 16, 40, dtype=np.uint64)
        pool = RingTriplePool("rtri", bits=16)
        pool.append_columns((a, b, (a * b) & np.uint64(0xFFFF)))
        lo = pool.reserve(40)
        t = pool.take(lo, 40)
        assert isinstance(t, RingTriples)
        assert t.bits == 16
        assert np.array_equal(t.c, (t.a * t.b) & np.uint64(0xFFFF))

    def test_matrix_triple_pool_roundtrip(self):
        gen = np.random.default_rng(22)
        t0, _ = dealer_matrix_triples(3, 5, 4, 32, gen)
        pool = MatrixTriplePool("mtri/3x5x4", 3, 5, 4, bits=32,
                                low_watermark=0, high_watermark=0)
        assert pool.name == MatrixTriplePool.key_for(3, 5, 4)
        assert MTRI.inputs(32, 3, 5, 4)[0] == ("cot/fwd", (3 * 5 + 5 * 4) * 32)
        pool.append(t0)
        lo = pool.reserve(1)
        got = pool.take(lo)
        assert isinstance(got, MatrixTriples)
        assert np.array_equal(got.a, t0.a)
        assert np.array_equal(got.c, t0.c)

    def test_consumed_matrix_triples_are_freed(self):
        """One item is a whole triple, drawn one per request: trimming
        counts consumed bytes, so a long-lived pool's buffers stay under a
        fixed ceiling however many triples pass through (an item-count
        rule kept every consumed triple alive for 32768 requests)."""
        m, k, n = 4, 24, 24
        t0, _ = dealer_matrix_triples(m, k, n, 16, np.random.default_rng(23))
        pool = MatrixTriplePool(MatrixTriplePool.key_for(m, k, n), m, k, n, bits=16)
        item_bytes = 8 * (m * k + k * n + m * n)
        for cycle in range(500):
            t0.c[0, 0] = cycle
            pool.append(t0)
            got = pool.take(pool.reserve(1))
            assert got.c[0, 0] == cycle and np.array_equal(got.a, t0.a)
            held = sum(col.nbytes for col in pool._columns)
            assert held <= 2 * (pool_module.TRIM_BYTES + 2 * item_bytes)
        assert pool._base > 0  # it did trim, not just never grow

    def test_trim_keeps_the_live_tail(self, monkeypatch):
        """Compaction moves produced-but-untaken rows (and rows taken out
        of order above the done frontier) to the front unchanged."""
        monkeypatch.setattr(pool_module, "TRIM_BYTES", 16 * 8)
        pool = CorrelationPool("raw", n_columns=2)
        data = np.arange(100, dtype=np.uint64)
        pool.append_columns((data, data.astype(np.uint8)))
        assert pool.reserve(100) == 0
        pool.take_columns(40, 10)  # above the frontier: stays live
        for lo in range(0, 40, 8):  # trims at 16, again at 32 (overlapping move)
            vals, small = pool.take_columns(lo, 8)
            assert np.array_equal(vals, data[lo : lo + 8])
            assert np.array_equal(small, data[lo : lo + 8])
        pool.append_columns((data + 100, data.astype(np.uint8)))
        vals, _ = pool.take_columns(50, 150)
        assert np.array_equal(vals, np.arange(50, 200, dtype=np.uint64))
        with pytest.raises(ServiceError, match="trimmed"):
            pool.take_columns(8, 8)

    def test_stats_accumulate(self):
        delta, z, _, _ = make_cot_arrays(100)
        pool = SenderCotPool("p", delta)
        pool.append(CotSenderBatch(delta, z))
        for _ in range(4):
            lo = pool.reserve(25)
            pool.take(lo, 25)
        s = pool.stats
        assert s.draws == 4 and s.items_drawn == 100
        assert s.refills == 1 and s.items_refilled == 100
        assert s.hit_rate == 1.0
        assert s.as_dict()["items_drawn"] == 100


class TestAppendColumns:
    """append_columns: every landing is at the frontier, and says where."""

    def test_racing_appenders_get_disjoint_contiguous_offsets(self):
        # The shard leader announces the returned offset to its peer, so
        # under racing appenders it must be where THAT batch landed:
        # reading ``produced`` around the call could not promise it.
        pool = CorrelationPool("race", 1)
        per_thread, landed = 200, {0: [], 1: []}
        start = threading.Barrier(2)

        def appender(who):
            gen = np.random.default_rng(who)
            start.wait(5.0)
            for i in range(per_thread):
                n = int(gen.integers(1, 6))
                tag = np.full(n, who * per_thread + i, dtype=np.uint64)
                landed[who].append((pool.append_columns((tag,)), n, tag[0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=appender, args=(w,)) for w in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for who in (0, 1):  # landing order is call order, per appender
            offsets = [lo for lo, _, _ in landed[who]]
            assert offsets == sorted(offsets) and len(offsets) == per_thread
        frontier = 0
        for lo, n, tag in sorted(landed[0] + landed[1]):
            assert lo == frontier  # disjoint and contiguous
            (got,) = pool.take_columns(lo, n, timeout=1.0)
            assert (got == tag).all()  # and it is that batch that sits there
            frontier += n
        assert pool.produced == frontier
        assert pool.stats.refills == 2 * per_thread

    def test_column_length_mismatch_rejected(self):
        pool = CorrelationPool("cols", 2)
        with pytest.raises(ServiceError, match="lengths disagree"):
            pool.append_columns(
                (np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.uint64))
            )
