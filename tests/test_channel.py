"""Channel codec, accounting and pair-runner tests."""

import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from parties import ScriptedChannel
from strategies import WireStrategies

from repro.crypto import blocks
from repro.errors import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ParameterError,
    ProtocolError,
)
from repro.ot.channel import (
    LocalChannel,
    PartyError,
    decode_msg,
    lane_bytes,
    lanes_bytes,
    run_pair,
)
from repro.ot.reconnect import HANDSHAKE
from repro.ppml.plan import START
from repro.runtime.daemon import VERDICTS
from repro.runtime.service import CONTROL


class TestLocalChannel:
    def test_roundtrip_bytes(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"hello")
        assert b.recv_bytes() == b"hello"

    def test_roundtrip_blocks(self, rng):
        a, b = LocalChannel.pair()
        data = blocks.random_blocks(5, rng)
        a.send_blocks(data)
        assert np.array_equal(b.recv_blocks(5), data)

    def test_roundtrip_bits(self, rng):
        a, b = LocalChannel.pair()
        bits = rng.integers(0, 2, 37).astype(np.uint8)
        a.send_lanes(bits, 1)
        assert np.array_equal(b.recv_lanes(37, 1), bits)

    def test_roundtrip_int(self):
        """A count travels as one 64-bit lane, 8 bytes."""
        a, b = LocalChannel.pair()
        a.send_lanes([123456789], 64)
        assert b.recv_lanes(1, 64)[0] == 123456789
        assert a.stats.bytes_sent == 8

    def test_roundtrip_int_narrow_width(self):
        a, b = LocalChannel.pair()
        a.send_lanes([77], 16)
        assert b.recv_lanes(1, 16)[0] == 77
        assert a.stats.bytes_sent == 2

    def test_lane_width_mismatch_raises(self):
        a, b = LocalChannel.pair()
        a.send_lanes([5], 32)
        with pytest.raises(ProtocolError, match="must be 8 bytes, got 4"):
            b.recv_lanes(1, 64)

    def test_recv_lanes_rejects_arbitrary_payload(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"not-eight-bytes!")
        with pytest.raises(ProtocolError):
            b.recv_lanes(1, 64)

    def test_fifo_order(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"1")
        a.send_bytes(b"2")
        assert b.recv_bytes() == b"1"
        assert b.recv_bytes() == b"2"

    def test_duplex(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"ping")
        b.send_bytes(b"pong")
        assert b.recv_bytes() == b"ping"
        assert a.recv_bytes() == b"pong"

    def test_recv_timeout_raises(self):
        a, _ = LocalChannel.pair()
        with pytest.raises(ChannelError):
            a.recv_bytes(timeout=0.05)

    def test_close_ends_the_peers_receives_after_pending_data(self):
        a, b = LocalChannel.pair(timeout=30.0)
        a.send_bytes(b"last words")
        a.close()
        assert b.recv_bytes() == b"last words"
        started = time.monotonic()
        for _ in range(2):  # sticky: every later receive fails at once
            with pytest.raises(ChannelClosed):
                b.recv_bytes()
        assert time.monotonic() - started < 1.0
        assert b.stats.bytes_received == len(b"last words")

    def test_timeout_is_a_channel_error_subclass(self):
        a, _ = LocalChannel.pair()
        with pytest.raises(ChannelTimeout):
            a.recv_bytes(timeout=0.05)

    def test_pair_timeout_configurable(self):
        """The old hardcoded 60 s is now a constructor/pair() argument."""
        a, b = LocalChannel.pair(timeout=0.05)
        assert a.timeout == 0.05 and b.timeout == 0.05
        start = time.monotonic()
        with pytest.raises(ChannelTimeout):
            a.recv_bytes()  # uses the configured default, not 60 s
        assert time.monotonic() - start < 5.0

    def test_explicit_timeout_overrides_default(self):
        a, _ = LocalChannel.pair(timeout=100.0)
        start = time.monotonic()
        with pytest.raises(ChannelTimeout):
            a.recv_bytes(timeout=0.05)
        assert time.monotonic() - start < 5.0


class TestAccounting:
    def test_bytes_counted_both_sides(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"x" * 100)
        b.recv_bytes()
        assert a.stats.bytes_sent == 100
        assert b.stats.bytes_received == 100

    def test_messages_counted(self):
        a, b = LocalChannel.pair()
        for _ in range(3):
            a.send_bytes(b"m")
        assert a.stats.messages_sent == 3

    def test_rounds_count_direction_flips(self):
        a, b = LocalChannel.pair()
        # a sends twice (one round), b replies (one round), a again (two).
        a.send_bytes(b"1")
        a.send_bytes(b"2")
        assert a.stats.rounds == 1
        b.recv_bytes()
        b.recv_bytes()
        b.send_bytes(b"r")
        assert b.stats.rounds == 1
        a.recv_bytes()
        a.send_bytes(b"3")
        assert a.stats.rounds == 2

    def test_total_bytes(self):
        a, b = LocalChannel.pair()
        a.send_bytes(b"abc")
        b.recv_bytes()
        b.send_bytes(b"defg")
        a.recv_bytes()
        assert a.stats.total_bytes == 7
        assert b.stats.total_bytes == 7

    def test_bit_packing_is_compact(self, rng):
        a, b = LocalChannel.pair()
        a.send_lanes(rng.integers(0, 2, 800).astype(np.uint8), 1)
        b.recv_lanes(800, 1)
        assert a.stats.bytes_sent == 8 + 100  # 8-byte count + packed bits


class TestCodec:
    """One codec for every typed message: lanes at their declared width,
    blocks at 16 bytes, every received frame checked against the shape
    the receiver declares."""

    def test_lane_widths(self):
        assert [lane_bytes(b) for b in (1, 8, 9, 16, 17, 32, 33, 64)] == [1, 1, 2, 2, 4, 4, 8, 8]
        for bad in (0, 65):
            with pytest.raises(ParameterError):
                lane_bytes(bad)

    def test_byte_model(self):
        assert lanes_bytes(37, 1) == 8 + 5  # the count, then the packed bits
        assert lanes_bytes(37, 16) == 37 * 2  # raw lanes, no header
        assert lanes_bytes(0, 64) == 0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=WireStrategies.shapes())
    def test_roundtrip_at_declared_width(self, data, shape):
        n, bits = shape
        values = data.draw(WireStrategies.lanes(n, bits))
        a, b = LocalChannel.pair()
        a.send_lanes(values, bits)
        got = b.recv_lanes(n, bits)
        assert got.dtype == (np.uint8 if bits == 1 else np.dtype(f"u{lane_bytes(bits)}"))
        assert got.flags.writeable
        assert np.array_equal(got, values)
        assert a.stats.bytes_sent == lanes_bytes(n, bits)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=WireStrategies.shapes())
    def test_any_other_frame_is_a_protocol_error(self, data, shape):
        n, bits = shape
        frame = data.draw(WireStrategies.bad_frames(n, bits))
        with pytest.raises(ProtocolError, match=f"{n} {bits}-bit lanes"):
            ScriptedChannel([frame]).recv_lanes(n, bits)

    @pytest.mark.parametrize("bits", [1, 2, 16, 63])
    def test_value_past_the_width_is_the_senders_error(self, bits):
        """Sending it would put a truncated value on the wire: wrong
        shares, and no error anywhere."""
        channel = ScriptedChannel([])
        with pytest.raises(ParameterError, match=f"2\\^{bits}"):
            channel.send_lanes(np.array([0, 1 << bits], dtype=np.uint64), bits)
        with pytest.raises(ParameterError):
            channel.send_lanes(np.array([-1]), bits)
        assert channel.stats.messages_sent == 0

    def test_narrow_lanes_are_not_widened(self):
        """A paper-scale IKNP correction matrix is one frame of 8-bit
        lanes; widening it to uint64 peaked at 8x the frame."""
        frame = 4 << 20
        a, b = LocalChannel.pair()
        a.send_lanes(np.arange(frame, dtype=np.uint64) & 0xFF, 8)
        tracemalloc.start()
        try:
            got = b.recv_lanes(frame, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.dtype == np.uint8 and got.shape == (frame,)
        assert peak <= 2 * frame

    def test_blocks_are_checked_against_the_declared_count(self, rng):
        a, b = LocalChannel.pair()
        a.send_blocks(blocks.random_blocks(3, rng))
        with pytest.raises(ProtocolError, match="frame of 4 blocks must be 64 bytes, got 48"):
            b.recv_blocks(4)


#: Every module's control schema, plus one op declaring each spec.
SCHEMAS = {
    "prov/ctl": CONTROL,
    "daemon/ctl": VERDICTS,
    "pipe": START,
    "hello": HANDSHAKE,
    "specs": {"every": {"i": int, "s": str, "l": [int], "m": {str: int}, "d": dict}, "bare": {}},
}


class TestControlCodec:
    """Control messages: compact JSON objects checked against the
    schema the receiver declares."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(SCHEMAS)))
    def test_messages_round_trip(self, data, name):
        op, fields = data.draw(WireStrategies.messages(SCHEMAS[name]))
        a, b = LocalChannel.pair()
        a.send_msg(op, **fields)
        assert b.recv_msg(SCHEMAS[name]) == {"op": op, **fields}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(SCHEMAS)))
    def test_every_bad_frame_is_a_protocol_error(self, data, name):
        frame = data.draw(WireStrategies.bad_messages(SCHEMAS[name]))
        with pytest.raises(ProtocolError):
            ScriptedChannel([frame]).recv_msg(SCHEMAS[name])

    @pytest.mark.parametrize(
        "frame, match",
        [
            (b'{"op": "admit", "seq": true, "session": "a", "batch": 1, "token": "t"}',
             "'admit': field 'seq' must be int, got True"),
            (b'{"op": "reject", "session": "a", "inflight": 1}',
             r"'reject': missing fields \['limit'\], extra fields \[\]"),
            (b'{"op": "stop", "x": 1}', r"'stop': missing fields \[\], extra fields \['x'\]"),
            (b'{"op": "go"}', "unknown control op 'go'"),
            (b"[1]", "holds a list, not an object"),
            (b"\xff", "is not JSON"),
        ],
    )
    def test_error_names_the_op_and_the_field(self, frame, match):
        with pytest.raises(ProtocolError, match=match):
            decode_msg(frame, VERDICTS)

    def test_one_compact_object_per_message(self):
        a, b = LocalChannel.pair()
        a.send_msg("reject", session="cli", inflight=4, limit=4)
        assert b.recv_bytes() == b'{"op":"reject","session":"cli","inflight":4,"limit":4}'


#: The only places under ``src/repro`` allowed to parse bytes with
#: ``json`` or ``struct``, each with the one call form it may use and
#: why.  Everything a peer sends is parsed by the codec in
#: ``ot/channel.py``.
PARSE_ALLOWED = {
    "ot/channel.py": (r".", "the codec: socket length prefix and control messages"),
    "runtime/mux.py": (
        r"_TAG_HEADER\.unpack_from\(",
        "decode_frame's tag header, which raises typed errors",
    ),
    "ot/reconnect.py": (
        r"_SEQ\.unpack_from\(",
        "the DATA / ACK sequence headers: per frame, on the hot path",
    ),
    "nmp/isa.py": (r"_WIRE\.unpack\(", "the simulator ISA, not peer input"),
    "obs/report.py": (r"json\.load\(fh\)", "reads a local trace file"),
}
PARSE_CALL = re.compile(r"json\.loads?\(|struct\.unpack|\.unpack\(|unpack_from")


def parse_sites(root: Path) -> list:
    """``module:line: text`` of every json / struct parse outside the
    allowed forms under ``root`` (a ``src/repro`` tree)."""
    hits = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        allowed = PARSE_ALLOWED.get(module, (None, ""))[0]
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if PARSE_CALL.search(line) and not (allowed and re.search(allowed, line)):
                hits.append(f"{module}:{lineno}: {line.strip()}")
    return hits


def test_peer_bytes_are_parsed_in_one_place():
    """No module but the codec parses control bytes itself."""
    root = Path(__file__).parents[1] / "src" / "repro"
    assert parse_sites(root) == []


#: The only modules under ``src/repro`` that call ``recv_bytes(``
#: themselves, and why.  Every protocol receives through the codec
#: (``recv_lanes`` / ``recv_blocks`` / ``recv_msg``), so each frame it
#: reads has a declared shape and a length check.
RAW_ALLOWED = {
    "ot/channel.py": "the transports, and the codec that every typed receive bottoms out in",
    "runtime/mux.py": "the pump reads link frames and routes them by tag",
    "ot/reconnect.py": "reads DATA / ACK / HELLO frames off the transport it heals",
    "ot/retry.py": "forwards frames untouched, waiting in policy-sized slices",
    "ot/faults.py": "forwards frames untouched between scheduled faults",
}
RAW_CALL = re.compile(r"\brecv_bytes\(")


def raw_receive_sites(root: Path) -> list:
    """``module:line: text`` of every ``recv_bytes(`` call under ``root``
    (a ``src/repro`` tree) outside the :data:`RAW_ALLOWED` modules."""
    hits = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        if module in RAW_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if RAW_CALL.search(line) and not line.lstrip().startswith("def "):
                hits.append(f"{module}:{lineno}: {line.strip()}")
    return hits


def test_frames_are_received_through_the_codec():
    """No protocol module reads raw frames: each allowed module still
    does (a stale entry is an error too), and nothing else does."""
    root = Path(__file__).parents[1] / "src" / "repro"
    assert raw_receive_sites(root) == []
    for module in RAW_ALLOWED:
        assert RAW_CALL.search((root / module).read_text()), module


class TestRunPair:
    def test_returns_both_results_and_stats(self):
        def ping(ch):
            ch.send_bytes(b"ping")
            return ch.recv_bytes()

        def pong(ch):
            msg = ch.recv_bytes()
            ch.send_bytes(b"pong")
            return msg

        ra, rb, sa, sb = run_pair(ping, pong)
        assert ra == b"pong" and rb == b"ping"
        assert sa.bytes_sent == 4 and sb.bytes_sent == 4

    def test_propagates_party_exception(self):
        def fail(ch):
            raise ValueError("boom")

        def idle(ch):
            return None

        with pytest.raises(PartyError, match="boom"):
            run_pair(fail, idle)

    def test_failing_party_unblocks_its_peer_at_once(self):
        """The peer of a party that raised sees ChannelClosed in
        milliseconds, and the caller sees the root cause, not that echo."""

        def fail(ch):
            raise ValueError("boom")

        def wait(ch):
            ch.recv_bytes()  # would block for the 60 s default

        for party_a, party_b, culprit in [(fail, wait, "a"), (wait, fail, "b")]:
            started = time.monotonic()
            with pytest.raises(PartyError, match=f"party {culprit!r}.*boom") as err:
                run_pair(party_a, party_b)
            assert time.monotonic() - started < 2.0
            assert isinstance(err.value.__cause__, ValueError)

    def test_recv_timeout_surfaced_through_run_pair(self):
        """run_pair(recv_timeout=...) reaches the channels, so paper-sized
        runs can wait longer than the default without dying spuriously."""

        def slow_sender(ch):
            time.sleep(0.3)
            ch.send_bytes(b"late")

        def patient_receiver(ch):
            return ch.recv_bytes()  # channel default must cover the delay

        # A tiny recv_timeout fails...
        with pytest.raises(PartyError):
            run_pair(slow_sender, patient_receiver, recv_timeout=0.05)
        # ...while an adequate one succeeds without per-call overrides.
        _, got, _, _ = run_pair(slow_sender, patient_receiver, recv_timeout=5.0)
        assert got == b"late"

    def test_interleaved_protocol(self, rng):
        data = blocks.random_blocks(4, rng)

        def sender(ch):
            for i in range(4):
                ch.send_blocks(data[i : i + 1])
                assert ch.recv_bytes() == b"ack%d" % i

        def receiver(ch):
            got = []
            for i in range(4):
                got.append(ch.recv_blocks(1))
                ch.send_bytes(b"ack%d" % i)
            return np.concatenate(got)

        _, received, _, _ = run_pair(sender, receiver)
        assert np.array_equal(received, data)
