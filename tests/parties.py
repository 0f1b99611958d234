"""The one party-pair harness of the service-level tests: run two
parties in lockstep, and start a CorrelationService pair to run them on;
state a draw list as a one-layer plan, and run a pipeline on a thread
of its own; plus a one-sided :class:`ScriptedChannel` that plays a
misbehaving peer.

A plain module, not ``conftest.py``: the whole-tree run also loads
``benchmarks/conftest.py`` under the same module name, so ``from
conftest import ...`` resolves to whichever was loaded last.
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.errors import ChannelError
from repro.ot.channel import Channel, LocalChannel, run_concurrently
from repro.ppml.plan import CorrelationDemand, PreprocessingPlan
from repro.runtime import CorrelationService, MuxChannel


def run_both(fn0, fn1, timeout=300.0, ctx=()):
    """Both parties in lockstep; a transport failure fails the test with
    ``ctx`` (the services' worker errors) attached."""
    try:
        return run_concurrently(fn0, fn1, timeout)
    except ChannelError as exc:
        pytest.fail(f"{exc!r} (svc errors: {ctx})")


def start_service_pair(cfg, tuning, seed):
    """``(svc0, svc1, mux0, mux1)``: a started CorrelationService pair
    over one in-memory link.  Stop the services, then close the muxes."""
    base_a, base_b = LocalChannel.pair(timeout=180.0)
    mux0 = MuxChannel(base_a, timeout=180.0)
    mux1 = MuxChannel(base_b, timeout=180.0)
    svc0 = CorrelationService(0, mux0, cfg, tuning, seed=seed).start()
    svc1 = CorrelationService(1, mux1, cfg, tuning, seed=seed).start()
    return svc0, svc1, mux0, mux1


def draws_plan(draws, bits, name="draws"):
    """An ad-hoc ``(pool kind, key, count)`` draw list as a one-layer
    :class:`PreprocessingPlan`: the way to prefill correlations no
    model graph asks for (``draws_plan(...).prefill(svc)`` on both
    parties)."""
    demand = CorrelationDemand().add(draws)
    return PreprocessingPlan(name, bits, demand, [(name, demand)])


def in_background(pipe):
    """Run ``pipe`` on a thread of its own, for a test that overlaps an
    online phase with it.  Returns ``join()``: wait for the pipeline and
    raise what it raised."""

    def target():
        with contextlib.suppress(Exception):  # kept in pipe.error
            pipe.run()

    thread = threading.Thread(target=target, name="test-pipeline", daemon=True)
    thread.start()

    def join(timeout=60.0):
        thread.join(timeout)
        assert not thread.is_alive(), "pipeline still running"
        if pipe.error is not None:
            raise pipe.error

    return join


class ScriptedChannel(Channel):
    """Plays back a fixed list of inbound messages; sends go nowhere."""

    def __init__(self, inbound):
        super().__init__()
        self._inbound = list(inbound)

    def send_bytes(self, data):
        self.stats.record_send(len(data))

    def recv_bytes(self, timeout=None):
        return self._inbound.pop(0)


def frame(n, bits):
    """The wire frame of ``n`` zero lanes ``bits`` wide, spelled out
    independently of the codec: an 8-byte count and the packed bits for
    1-bit lanes, raw lanes of 1 / 2 / 4 / 8 bytes otherwise."""
    if bits == 1:
        return n.to_bytes(8, "little") + bytes((n + 7) // 8)
    return bytes(n * next(b for b in (1, 2, 4, 8) if 8 * b >= bits))
