"""Property fuzzing: frame codec, mux attribution, pool invariants.

Hypothesis drives randomized-but-reproducible inputs through the
runtime's pure-ish cores: the mux frame codec must round-trip and
reject malformed bytes with a typed error, per-tag byte attribution
must partition the base channel's totals exactly under any tag
interleaving, and the pool's absolute-index accounting must hold under
any legal sequence of append/reserve/take/target/rollback operations.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import ChannelError, ServiceError  # noqa: E402
from repro.ot.channel import LocalChannel  # noqa: E402
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
@given(ops=OPS)
def test_pool_accounting_invariants(ops):
    """Under any legal op sequence: level == produced - reserved, takes
    return exactly the appended stream (also across rollbacks, which
    must refuse to cross the taken frontier), and produce targets go
    inert once passed."""
    pool = CorrelationPool("fuzz", 1)
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
        assert pool.deficit == max(0, reserved - len(stream), target - len(stream))
        if pool.produced >= target:
            # The target is inert: refill pressure is the reservations'.
            assert pool.needs_refill() == (pool.level < 0)
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
