"""Property fuzzing: frame codec, mux attribution, pool invariants.

Hypothesis drives randomized-but-reproducible inputs through the
runtime's pure-ish cores: the mux frame codec must round-trip and
reject malformed bytes with a typed error, per-tag byte attribution
must partition the base channel's totals exactly under any tag
interleaving, the pool's absolute-index accounting must hold under
any legal sequence of append/reserve/take/target/rollback operations,
and a follower shard merger must land the leader's stream under any
arrival order of its own workers' results.
"""

from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from strategies import StreamStrategies  # noqa: E402

from repro.errors import ChannelError, ServiceError  # noqa: E402
from repro.obs.trace import NULL_TRACER  # noqa: E402
from repro.ot.channel import LocalChannel  # noqa: E402
from repro.runtime import shard  # noqa: E402
from repro.runtime.mux import MuxChannel, decode_frame, encode_frame  # noqa: E402
from repro.runtime.pool import CorrelationPool  # noqa: E402


# -- frame codec -------------------------------------------------------------
@given(tag=st.text(max_size=32), payload=st.binary(max_size=256))
def test_frame_roundtrip(tag, payload):
    got_tag, got_payload = decode_frame(encode_frame(tag.encode("utf-8"), payload))
    assert got_tag == tag
    assert got_payload == payload


@given(frame=st.binary(max_size=1))
def test_short_header_is_a_typed_error(frame):
    with pytest.raises(ChannelError, match="malformed"):
        decode_frame(frame)


@given(
    claimed=st.integers(min_value=1, max_value=0xFFFF),
    body=st.binary(max_size=64),
)
def test_lying_tag_length_is_a_typed_error(claimed, body):
    hypothesis.assume(claimed > len(body))
    frame = claimed.to_bytes(2, "little") + body
    with pytest.raises(ChannelError, match="tag length"):
        decode_frame(frame)


@given(payload=st.binary(max_size=32))
def test_non_utf8_tag_is_a_typed_error(payload):
    bad_tag = b"\xff\xfe\xfd"
    frame = len(bad_tag).to_bytes(2, "little") + bad_tag + payload
    with pytest.raises(ChannelError, match="malformed"):
        decode_frame(frame)


# -- mux attribution ---------------------------------------------------------
TAGS = ("prov/fwd", "sess/a", "x")


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, len(TAGS) - 1), st.binary(max_size=48)),
        min_size=1,
        max_size=24,
    )
)
def test_per_tag_attribution_partitions_base_totals(ops):
    """Any interleaving of tagged sends: the per-tag byte counts sum
    exactly to the underlying channel's totals on both endpoints."""
    base_a, base_b = LocalChannel.pair(timeout=10.0)
    mux_a, mux_b = MuxChannel(base_a, timeout=10.0), MuxChannel(base_b, timeout=10.0)
    try:
        per_tag = {tag: 0 for tag in TAGS}
        for idx, payload in ops:
            mux_a.sub(TAGS[idx]).send_bytes(payload)
            per_tag[TAGS[idx]] += 1
        got = {}
        for tag, count in per_tag.items():
            got[tag] = [mux_b.sub(tag).recv_bytes(timeout=10.0) for _ in range(count)]
        # Payloads arrive intact, per tag, in order.
        for idx, payload in ops:
            assert got[TAGS[idx]].pop(0) == payload
        sent_by_tag = sum(
            mux_a.sub(tag).stats.bytes_sent for tag in TAGS
        )
        recv_by_tag = sum(
            mux_b.sub(tag).stats.bytes_received for tag in TAGS
        )
        assert sent_by_tag == base_a.stats.bytes_sent
        assert recv_by_tag == base_b.stats.bytes_received
        # Frame counts partition too (the resume-handshake state).
        counts = mux_b.receive_counts()
        for tag, count in per_tag.items():
            assert counts.get(tag, 0) == count
    finally:
        mux_a.close()
        mux_b.close()


# -- pool invariants ---------------------------------------------------------
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 8)),
        st.tuples(st.just("reserve"), st.integers(1, 8)),
        st.tuples(st.just("take"), st.integers(1, 8)),
        st.tuples(st.just("target"), st.integers(0, 40)),
        st.tuples(st.just("rollback"), st.integers(0, 40)),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(ops=OPS, low=st.integers(0, 8))
def test_pool_accounting_invariants(ops, low):
    """Under any legal op sequence: level == produced - reserved, takes
    return exactly the appended stream (also across rollbacks, which
    must refuse to cross the taken frontier), and produce targets go
    inert once passed."""
    pool = CorrelationPool("fuzz", 1, low_watermark=low)
    stream = []  # model: the values produced and retained
    counter = 0  # global value source, never reused across rollbacks
    reserved = 0
    next_take = 0  # model takes are sequential from the front
    target = 0

    for op, arg in ops:
        if op == "append":
            vals = list(range(counter, counter + arg))
            counter += arg
            stream.extend(vals)
            pool.append_columns((np.asarray(vals, dtype=np.uint64),))
        elif op == "reserve":
            lo = pool.reserve(arg)
            assert lo == reserved
            reserved += arg
        elif op == "take":
            if len(stream) - next_take >= arg:
                (got,) = pool.take_columns(next_take, arg, timeout=1.0)
                assert got.tolist() == stream[next_take : next_take + arg]
                next_take += arg
        elif op == "target":
            before = pool.produce_target
            pool.raise_produce_target(arg)
            assert pool.produce_target == max(before, arg)  # never lowered
            target = pool.produce_target
        elif op == "rollback":
            if arg < next_take:
                with pytest.raises(ServiceError, match="cannot roll back"):
                    pool.rollback_to(arg)
            elif arg <= len(stream):
                dropped = pool.rollback_to(arg)
                assert dropped == max(0, len(stream) - arg)
                del stream[arg:]

        # Core accounting invariants, after every operation.
        assert pool.produced == len(stream)
        assert pool.reserved == reserved
        assert pool.level == len(stream) - reserved
        assert pool.deficit >= 0
        if pool.produced >= target:
            # The target is inert: refill pressure is the watermark's.
            assert pool.needs_refill() == (pool.level < low)
        else:
            assert pool.needs_refill()


@settings(max_examples=50, deadline=None)
@given(
    produced=st.integers(1, 30),
    taken=st.integers(0, 30),
    rollback=st.integers(0, 30),
)
def test_rollback_respects_taken_frontier(produced, taken, rollback):
    hypothesis.assume(taken <= produced)
    pool = CorrelationPool("fuzz-rb", 1)
    pool.append_columns((np.arange(produced, dtype=np.uint64),))
    if taken:
        pool.take_columns(0, taken, timeout=1.0)
    if rollback < taken:
        with pytest.raises(ServiceError):
            pool.rollback_to(rollback)
    else:
        dropped = pool.rollback_to(rollback)
        assert dropped == max(0, produced - rollback)
        assert pool.produced == min(produced, max(rollback, taken))


# -- shard merge -------------------------------------------------------------
DIRECTIONS = tuple(shard._DIR_CODE)


def _follower():
    """A follower ``ShardManager`` over two bare pools: no service
    worker, no mux, no processes -- only the merge step is driven."""
    pools = {f"cot/{d}": CorrelationPool(f"cot/{d}", 1) for d in DIRECTIONS}
    service = SimpleNamespace(
        party=1,
        mux=SimpleNamespace(sub=lambda tag: None),
        pools=pools,
        tracer=NULL_TRACER,
        extends=dict.fromkeys(DIRECTIONS, 0),
    )
    return shard.ShardManager(service, 2, seed=0), pools


def _leader_stream(data):
    """A two-direction stream as the leader landed it: per direction a
    partition of ``[0, n)`` into batches, the two announcement orders
    merged at random, and sequence numbers (dispatch order) unrelated
    to landing order.  Returns ``[(seq, direction, lo, hi), ...]`` in
    announcement order."""
    per_dir = {
        d: data.draw(
            StreamStrategies.partitions(0, data.draw(st.integers(1, 40), label=f"n-{d}")),
            label=f"batches-{d}",
        )
        for d in DIRECTIONS
    }
    merge = data.draw(
        st.permutations([d for d in DIRECTIONS for _ in per_dir[d]]), label="merge"
    )
    seqs = data.draw(st.permutations(range(len(merge))), label="seqs")
    queues = {d: iter(per_dir[d]) for d in DIRECTIONS}
    return [(seq, d, *next(queues[d])) for seq, d in zip(seqs, merge)]


def _soff(seq, direction, lo, n):
    return shard._SHARD_OFF.pack(shard.OP_SHARD_OFF, seq, shard._DIR_CODE[direction], lo, n)


def _content(direction, lo, hi):
    """The stream's values: absolute index, tagged with its direction."""
    return np.arange(lo, hi, dtype=np.uint64) + (1000 if direction == "rev" else 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_follower_lands_announced_and_arrived_prefix(data):
    """Announcements arrive in leader order, local results in any
    permutation, the two interleaved at random: after every step each
    pool has advanced over exactly the longest prefix of its
    direction's announcements whose results are all in (so one
    direction never waits on the other), and the final streams are the
    leader's."""
    stream = _leader_stream(data)
    arrivals = data.draw(st.permutations(stream), label="arrivals")
    steps = data.draw(
        st.permutations(["announce"] * len(stream) + ["arrive"] * len(stream)),
        label="interleave",
    )
    mgr, pools = _follower()
    announce, arrive = iter(stream), iter(arrivals)
    announced = {d: [] for d in DIRECTIONS}
    arrived = set()
    for step in steps:
        if step == "announce":
            seq, d, lo, hi = next(announce)
            announced[d].append((seq, hi))
            mgr._on_ctl(_soff(seq, d, lo, hi - lo))
        else:
            seq, d, lo, hi = next(arrive)
            arrived.add(seq)
            mgr._results[seq] = (seq % 2, d, (_content(d, lo, hi),), 0.0)
        mgr._merge_ready()
        for d in DIRECTIONS:
            frontier = 0
            for seq, hi in announced[d]:
                if seq not in arrived:
                    break
                frontier = hi
            assert pools[f"cot/{d}"].produced == frontier, (d, step)
    assert mgr.collect()["pending_merge"] == 0
    for d in DIRECTIONS:
        n = max(hi for _, dd, _, hi in stream if dd == d)
        (got,) = pools[f"cot/{d}"].take_columns(0, n, timeout=1.0)
        assert np.array_equal(got, _content(d, 0, n))
    assert sum(s["extends"] for s in mgr.stats) == len(stream)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_follower_rejects_an_announcement_that_disagrees(data):
    """The announced ``(direction, lo, n)`` is the peer's word: one that
    is not this party's frontier, or not this party's batch, is a typed
    error at its landing, never a silently shifted stream."""
    stream = _leader_stream(data)
    victim = data.draw(st.integers(0, len(stream) - 1), label="victim")
    lie = data.draw(st.sampled_from(["lo", "n", "direction"]), label="lie")
    mgr, pools = _follower()
    for seq, d, lo, hi in stream:  # every local result is already in
        mgr._results[seq] = (seq % 2, d, (_content(d, lo, hi),), 0.0)
    with pytest.raises(ServiceError, match="shard merge mismatch"):
        for i, (seq, d, lo, hi) in enumerate(stream):
            n = hi - lo
            if i == victim and lie == "lo":
                lo = data.draw(st.integers(0, hi + 3).filter(lambda v: v != lo), label="lo")
            elif i == victim and lie == "n":
                n += 1
            elif i == victim:
                d = DIRECTIONS[1 - DIRECTIONS.index(d)]
            mgr._on_ctl(_soff(seq, d, lo, n))
            mgr._merge_ready()
