"""The one party-pair harness of the service-level tests: run two
parties in lockstep, and start a CorrelationService pair to run them on.

A plain module, not ``conftest.py``: the whole-tree run also loads
``benchmarks/conftest.py`` under the same module name, so ``from
conftest import ...`` resolves to whichever was loaded last.
"""

from __future__ import annotations

import pytest

from repro.errors import ChannelError
from repro.ot.channel import LocalChannel, run_concurrently
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
