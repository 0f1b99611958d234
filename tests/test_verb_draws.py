"""What an online verb consumes is declared once, in its ``*_draws``
list: on a live service pair every verb, in every truncation mode,
draws exactly that list, the planner prices exactly that list, and the
whole list costs one allocation message."""

from collections import Counter

import numpy as np
import pytest
from parties import run_both, start_service_pair

from repro.ferret.config import FerretConfig
from repro.mpc.matmul import (
    matmul_draws,
    matmul_rescale_via_service,
    matmul_via_service,
)
from repro.mpc.maxpool import max_draws, max_via_service
from repro.mpc.relu import relu_draws, relu_via_service
from repro.mpc.sharing import ArithmeticShares
from repro.mpc.truncation import FixedPointConfig, trunc_draws, trunc_via_service
from repro.ppml.layers import Activation, Graph, Linear, MaxPool2d, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import ServiceTuning
from repro.runtime.recipes import BY_KIND

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from strategies import VerbStrategies  # noqa: E402

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
BITS = 16
FX = FixedPointConfig(bits=BITS, frac_bits=4, mag_bits=9)
TUNING = ServiceTuning(
    ring_bits=BITS,
    triple_low=0, triple_high=0, triple_chunk=512,
    rtri_chunk=128,
    enable_rots=False,
)


@pytest.fixture(scope="module")
def services():
    svc0, svc1, mux0, mux1 = start_service_pair(CFG, TUNING, seed=0xD4A5)
    yield svc0, svc1
    svc0.stop(), svc1.stop()
    mux0.close(), mux1.close()


def shares(party, *shape):
    return np.random.default_rng(party).integers(0, 1 << BITS, shape, dtype=np.uint64)


def setup(verb, mode, shape):
    """``(draw list, (input shape, layers) of the one-verb graph,
    run(session, party))``."""
    if verb in ("relu", "max"):
        # A 2x2 max-pool window costs three comparisons per channel.
        n = shape[0] * (3 if verb == "max" else 1)

        def vec(party, salt):
            return ArithmeticShares(shares(party + salt, n), BITS)

        if verb == "relu":
            return (
                relu_draws(n, BITS), ((n,), [Activation("relu")]),
                lambda s, p: relu_via_service(s, vec(p, 0), np.random.default_rng(p)),
            )
        return (
            max_draws(n, BITS), ((shape[0], 2, 2), [MaxPool2d(2, 2)]),
            lambda s, p: max_via_service(s, vec(p, 0), vec(p, 2), np.random.default_rng(p)),
        )
    if verb == "trunc":
        (n,) = shape
        return (
            trunc_draws(n, FX, mode), ((n,), [Rescale()]),
            lambda s, p: trunc_via_service(s, shares(p, n), FX, mode),
        )
    m, k, n = shape
    if verb == "matmul":
        return (
            matmul_draws(m, k, n), ((m, k), [Linear(n)]),
            lambda s, p: matmul_via_service(s, shares(p, m, k), shares(p, k, n)),
        )
    return (
        matmul_draws(m, k, n) + trunc_draws(m * n, FX, mode),
        ((m, k), [Linear(n), Rescale()]),
        lambda s, p: matmul_rescale_via_service(
            s, shares(p, m, k), shares(p, k, n), FX, mode
        ),
    )


MODES = ("pair", "wrap", "exact")


@pytest.mark.parametrize(
    "verb, mode",
    [("relu", None), ("max", None), ("matmul", None)]
    + [(verb, mode) for verb in ("matmul_rescale", "trunc") for mode in MODES],
)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_verb_draws_its_list_the_plan_prices_it_one_allocation(services, verb, mode, data):
    svc0, svc1 = services
    shape = data.draw(VerbStrategies.shapes(verb))
    draws, (in_shape, layers), run = setup(verb, mode, shape)
    wanted = [(BY_KIND[kind].pool_name(*key), count) for kind, key, count in draws]
    declared = Counter()
    for name, count in wanted:
        declared[name] += count

    graph = Graph(verb, in_shape)
    for layer in layers:
        graph.add(layer)
    plan = plan_graph(graph, bits=BITS, fx=FX, trunc_mode=mode or "exact")
    assert plan.pool_targets() == declared

    # The leader's session, with its reserves and sends logged in order.
    session = svc0.session("verb")
    log = []
    send, reserve = session.channel.send_bytes, svc0.reserve
    session.channel.send_bytes = lambda data: log.append(len(data)) or send(data)
    svc0.reserve = lambda kind, n: log.append((kind, n)) or reserve(kind, n)
    before = svc0.session_draw_counts()
    try:
        run_both(
            lambda: run(session, 0), lambda: run(svc1.session("verb"), 1),
            ctx=(svc0.error, svc1.error),
        )
    finally:
        del svc0.reserve
    after = svc0.session_draw_counts()
    assert {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)} == declared

    # Every range reserved in list order, announced in ONE message of an
    # offset each, and nothing reserved after it.
    assert log[: len(wanted) + 1] == wanted + [8 * len(wanted)]
    assert all(isinstance(entry, int) for entry in log[len(wanted) + 1:])
