"""Every decoder of control bytes, fed hostile frames by a scripted peer.

Each site that reads a control message -- the service follower's
command loop, the leader's resync barrier and NACK drain, the daemon's
verdict stream, the pipelined prefill's start positions and both
reconnect HELLO sites -- reads
it through :func:`repro.ot.channel.decode_msg`.  A frame outside the
declared shape must surface as a :class:`ProtocolError` at once: never
a ``KeyError``, ``struct.error`` or ``JSONDecodeError``, a hang, or a
silently dropped frame.
"""

import importlib
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from parties import ScriptedChannel
from strategies import WireStrategies

import repro
from repro.errors import ProtocolError, ServiceError
from repro.ferret.config import FerretConfig
from repro.fingerprint import CONSTANTS, PROTOCOL
from repro.ot.channel import LocalChannel, encode_msg
from repro.ot.reconnect import HANDSHAKE, ReconnectingChannel
from repro.ot.retry import RetryPolicy
from repro.ppml.layers import Graph, Linear
from repro.ppml.plan import START, PipelinedPrefill, plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.runtime.daemon import VERDICTS, InferenceDaemon
from repro.runtime.service import CONTROL, HELLO_CONFIG

HOSTILE = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")

#: Messages that fit the ``prov/ctl`` schema but not the recipe they
#: name: a key of the wrong length, a wrong number of input offsets.
BAD_COMMANDS = [
    encode_msg("MTRI", key=[2, 3], n=1, offsets=[0]),
    encode_msg("TRI", key=[4], n=1, offsets=[0, 0]),
    encode_msg("TRI", key=[], n=1, offsets=[0]),
    encode_msg("EXT0", key=[], n=0, offsets=[0, 0]),
]


class DrainableScript(ScriptedChannel):
    """A scripted peer that also serves a mux sub-channel's ``drain``."""

    def drain(self):
        out, self._inbound = self._inbound, []
        return out


@pytest.fixture(scope="module")
def services():
    """An unstarted service per party: only their decoders are driven."""
    muxes = [MuxChannel(end) for end in LocalChannel.pair()]
    yield [CorrelationService(party, mux, CFG, ServiceTuning()) for party, mux in enumerate(muxes)]
    for mux in muxes:
        mux.close()


# -- correlation service ---------------------------------------------------------
@HOSTILE
@given(frame=WireStrategies.bad_messages(CONTROL))
def test_follower_command_loop(services, frame):
    follower = services[1]
    follower._ctl = ScriptedChannel([frame])
    with pytest.raises(ProtocolError):
        follower._follower_loop()


@pytest.mark.parametrize("frame", BAD_COMMANDS)
def test_follower_command_of_the_wrong_shape(services, frame):
    follower = services[1]
    follower._ctl = ScriptedChannel([frame])
    with pytest.raises(ProtocolError, match="key|offsets"):
        follower._follower_loop()


def test_follower_worker_fails_typed_and_fast():
    """Through the whole worker: ``service.error`` is the ProtocolError,
    set at once (the loop's receive slice is 0.2 s; the bound leaves
    room for a loaded host)."""
    mux = MuxChannel(LocalChannel.pair()[0])
    try:
        follower = CorrelationService(1, mux, CFG, ServiceTuning())
        follower.mint_base_cots = lambda fwd_channel, rev_channel: ((), ())
        follower.ferret_fwd.seed_base_cots = follower.ferret_rev.seed_base_cots = (
            lambda *columns: None
        )
        follower._ctl = ScriptedChannel([
            encode_msg("hello", protocol=PROTOCOL),
            encode_msg("config", **follower.hello_config()),
            b'{"op": "MTRI", "key": [2, 3, 2]}',
        ])
        start = time.monotonic()
        follower._run()
        assert time.monotonic() - start < 1.0
        assert isinstance(follower.error, ProtocolError)
        assert "MTRI" in str(follower.error) and "missing fields ['n', 'offsets']" in str(
            follower.error
        )
    finally:
        mux.close()


def test_follower_refuses_a_hello_mid_stream(services):
    follower = services[1]
    follower._ctl = ScriptedChannel([encode_msg("hello", protocol=PROTOCOL)])
    with pytest.raises(ProtocolError, match="'hello' is not a production command"):
        follower._follower_loop()


def test_follower_refuses_a_config_mid_stream(services):
    follower = services[1]
    follower._ctl = ScriptedChannel([encode_msg("config", **follower.hello_config())])
    with pytest.raises(ProtocolError, match="'config' is not a production command"):
        follower._follower_loop()


@pytest.mark.parametrize("party", [0, 1])
def test_service_refuses_a_peer_on_another_protocol(party, monkeypatch):
    """The hello is each party's first control message: a peer that
    announces another fingerprint fails the worker in milliseconds
    (not at the 60 s receive timeout), named with both values, before
    any base OT runs."""
    import repro.ferret.protocol as protocol

    base_calls = []
    for name in ("base_cot_send", "base_cot_receive"):
        monkeypatch.setattr(protocol, name, lambda *args, _n=name: base_calls.append(_n))
    ends = LocalChannel.pair(timeout=60.0)
    mux, peer = MuxChannel(ends[party], timeout=60.0), MuxChannel(ends[1 - party], timeout=60.0)
    try:
        svc = CorrelationService(party, mux, CFG, ServiceTuning())
        peer.sub("prov/ctl").send_msg("hello", protocol="0:0000")
        start = time.monotonic()
        svc.start()
        with pytest.raises(ServiceError) as info:
            svc.wait_ready(30.0)
        assert time.monotonic() - start < 1.0
        cause = info.value.__cause__
        assert isinstance(cause, ProtocolError)
        assert "'0:0000'" in str(cause) and repr(PROTOCOL) in str(cause)
        assert peer.sub("prov/ctl").recv_msg(CONTROL) == {"op": "hello", "protocol": PROTOCOL}
        assert base_calls == []
    finally:
        mux.close(), peer.close()


def test_a_peer_on_the_previous_version_names_both_protocols(monkeypatch):
    """The hello is ``{"protocol": str}`` in every version, so a peer
    on the version before (whose schema has no ``config`` op) parses
    this party's hello and refuses it by both fingerprints, instead of
    failing on the message's shape."""
    from repro import fingerprint

    previous = {"hello": {"protocol": str}}
    ends = LocalChannel.pair(timeout=60.0)
    mux, peer = MuxChannel(ends[0], timeout=60.0), MuxChannel(ends[1], timeout=60.0)
    try:
        svc = CorrelationService(0, mux, CFG, ServiceTuning())
        svc.start()
        hello = peer.sub("prov/ctl").recv_msg(previous)
        svc.stop()
    finally:
        mux.close(), peer.close()
    monkeypatch.setattr(fingerprint, "PROTOCOL", "2:0000")
    with pytest.raises(ProtocolError) as info:
        fingerprint.check_peer_protocol(hello["protocol"])
    assert repr(PROTOCOL) in str(info.value) and "'2:0000'" in str(info.value)


def refused_config(party, monkeypatch, second=None, **changes) -> tuple:
    """Start ``party``'s service against a scripted peer on the same
    protocol whose config is this party's own with ``changes`` applied
    (or whose second message is ``second``, an op and its fields); the
    worker must fail in milliseconds (not at the
    60 s receive timeout), before any base OT runs, having sent its own
    honest hello and config.  Returns the error and that config."""
    import repro.ferret.protocol as protocol

    base_calls = []
    for name in ("base_cot_send", "base_cot_receive"):
        monkeypatch.setattr(protocol, name, lambda *args, _n=name: base_calls.append(_n))
    ends = LocalChannel.pair(timeout=60.0)
    mux, peer = MuxChannel(ends[party], timeout=60.0), MuxChannel(ends[1 - party], timeout=60.0)
    try:
        svc = CorrelationService(party, mux, CFG, ServiceTuning())
        honest = svc.hello_config()
        peer.sub("prov/ctl").send_msg("hello", protocol=PROTOCOL)
        op, fields = second or ("config", {**honest, **changes})
        peer.sub("prov/ctl").send_msg(op, **fields)
        start = time.monotonic()
        svc.start()
        with pytest.raises(ServiceError) as info:
            svc.wait_ready(30.0)
        assert time.monotonic() - start < 1.0
        assert peer.sub("prov/ctl").recv_msg(CONTROL) == {"op": "hello", "protocol": PROTOCOL}
        assert peer.sub("prov/ctl").recv_msg(CONTROL) == {"op": "config", **honest}
        assert base_calls == []
        assert isinstance(info.value.__cause__, ProtocolError)
        return info.value.__cause__, honest
    finally:
        mux.close(), peer.close()


#: One peer setting per hello config field that differs from ``CFG``
#: and the default tuning.
OTHER_CONFIG = {
    "n": CFG.params.n + 1, "k": CFG.params.k + 1, "t": CFG.params.t + 1, "arity": 2,
    "prg_kind": "aes", "matrix_seed": CFG.matrix_seed + 1, "ring_bits": 16,
}


def test_every_hello_config_field_has_a_hostile_case():
    assert OTHER_CONFIG.keys() == HELLO_CONFIG.keys()


@pytest.mark.parametrize("party", [0, 1])
@pytest.mark.parametrize("field", sorted(OTHER_CONFIG))
def test_service_refuses_a_peer_with_another_config(party, field, monkeypatch):
    """A peer on the same protocol but another wire-shaping setting (a
    ``chacha8`` tree PRG against an ``aes`` one extends to COTs that do
    not verify) is refused, the field named with both values."""
    cause, mine = refused_config(party, monkeypatch, **{field: OTHER_CONFIG[field]})
    assert f"{field} {OTHER_CONFIG[field]!r} (this party {mine[field]!r})" in str(cause)
    assert str(cause).count("(this party") == 1


def test_service_names_every_differing_config_field(monkeypatch):
    cause, _ = refused_config(0, monkeypatch, **OTHER_CONFIG)
    assert all(f"{field} {value!r} " in str(cause) for field, value in OTHER_CONFIG.items())
    assert str(cause).count("(this party") == len(OTHER_CONFIG)


def test_service_refuses_a_peer_that_skips_its_config(monkeypatch):
    """A peer that follows its hello with anything but its config is
    refused before any base OT; the message is named."""
    cause, _ = refused_config(0, monkeypatch, second=("STOP", {}))
    assert "expected the peer's config, got 'STOP'" in str(cause)


def test_every_tweak_stride_and_offset_is_fingerprinted():
    """Two peers differing in a tweak base, stride or offset compute
    wrong shares and raise nothing: each module-level integer of
    ``repro`` whose name says it is one must be in the fingerprint."""
    root = Path(repro.__file__).parent
    missing = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        missing += [
            f"{module.__name__}.{name}"
            for name, value in vars(module).items()
            if any(word in name for word in ("TWEAK", "STRIDE", "OFFSET"))
            and isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and name not in CONSTANTS
        ]
    assert not missing, f"not in repro.fingerprint.CONSTANTS: {missing}"


@HOSTILE
@given(frame=WireStrategies.bad_messages(CONTROL))
def test_leader_resync_barrier(services, frame):
    leader = services[0]
    leader._ctl = ScriptedChannel([frame])
    with pytest.raises(ProtocolError):
        leader._leader_resync()


def test_leader_resync_refuses_a_command_for_its_ack(services):
    leader = services[0]
    leader._ctl = ScriptedChannel([encode_msg("TRI", key=[], n=1, offsets=[0, 0])])
    with pytest.raises(ProtocolError, match="resync expected SACK, got 'TRI'"):
        leader._leader_resync()


@HOSTILE
@given(frame=WireStrategies.bad_messages(CONTROL))
def test_leader_nack_drain(services, frame):
    leader = services[0]
    leader._ctl = DrainableScript([frame])
    with pytest.raises(ProtocolError):
        leader._check_peer_nack()


# -- inference daemon ---------------------------------------------------------------
@HOSTILE
@given(frame=WireStrategies.bad_messages(VERDICTS))
def test_daemon_verdict_stream(frame):
    """The follower's ctl loop fails every request with the error and
    stops reading."""
    failed = []
    follower = SimpleNamespace(
        _closing=False, _ctl=ScriptedChannel([frame]), _fail_all=failed.append
    )
    InferenceDaemon._apply_ctl(follower)
    (exc,) = failed
    assert isinstance(exc, ProtocolError)


# -- pipelined prefill ----------------------------------------------------------------
def _follower_start_error(frame):
    graph = Graph("g", (4, 16))
    graph.add(Linear(8))
    plan = plan_graph(graph, bits=16)
    pipe = PipelinedPrefill(
        plan, SimpleNamespace(party=1), 5.0, channel=ScriptedChannel([frame])
    )
    with pytest.raises(ProtocolError) as info:
        pipe.run()
    assert pipe.error is info.value
    return info.value


@HOSTILE
@given(frame=WireStrategies.bad_messages(START))
def test_pipeline_start_positions(frame):
    _follower_start_error(frame)


def test_pipeline_start_lacking_a_plan_pool():
    frame = encode_msg("start", positions={"cot/fwd": 0})
    assert "mtri/4x16x8" in str(_follower_start_error(frame))


# -- reconnect HELLO --------------------------------------------------------------------
ONE_SHOT = RetryPolicy(attempts=1, backoff_s=0.01, max_backoff_s=0.01, deadline_s=1.0)
HELLO = b"H" + encode_msg("hello", epoch=1, rx=0, state={}, protocol=PROTOCOL)


@HOSTILE
@given(frame=WireStrategies.bad_messages(HANDSHAKE))
def test_reconnect_handshake(frame):
    with pytest.raises(ProtocolError):
        ReconnectingChannel(lambda: ScriptedChannel([b"H" + frame]), policy=ONE_SHOT)


@HOSTILE
@given(frame=WireStrategies.bad_messages(HANDSHAKE))
def test_reconnect_in_place_hello(frame):
    channel = ReconnectingChannel(lambda: ScriptedChannel([HELLO, b"H" + frame]), policy=ONE_SHOT)
    with pytest.raises(ProtocolError):
        channel.recv_bytes(timeout=0.5)


def test_reconnect_keeps_the_peer_state():
    hello = b"H" + encode_msg(
        "hello", epoch=1, rx=0, state={"mux": {"sess/a": 3}}, protocol=PROTOCOL
    )
    channel = ReconnectingChannel(lambda: ScriptedChannel([hello]), policy=ONE_SHOT)
    assert channel.peer_state == {"mux": {"sess/a": 3}} and channel.epoch == 1


def test_reconnect_refuses_another_protocol():
    """A peer on another wire version is refused at the first HELLO,
    named with both fingerprints, and never retried."""
    hello = b"H" + encode_msg("hello", epoch=1, rx=0, state={}, protocol="0:0000")
    dials = []

    def dial():
        dials.append(1)
        return ScriptedChannel([hello])

    with pytest.raises(ProtocolError, match=f"'0:0000'.*'{PROTOCOL}'"):
        ReconnectingChannel(dial, policy=RetryPolicy(attempts=3, backoff_s=0.01))
    assert len(dials) == 1
