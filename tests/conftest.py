"""Shared fixtures: deterministic RNGs and pre-generated base COTs.

Base COTs cost a fixed ~0.3 s of public-key operations per run, so the
protocol tests share one session-scoped pool of genuine COT
correlations produced through the real base-COT protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

try:  # Hypothesis: explicit CI profile (no wall-clock deadline flakes)
    from hypothesis import HealthCheck, settings

    settings.register_profile(
        "ci",
        deadline=None,
        max_examples=50,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("ci")
except ImportError:  # pragma: no cover - fuzz suite skips without it
    pass

from repro.crypto import blocks
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def delta():
    return blocks.random_blocks(1, np.random.default_rng(41))


N_SHARED_COTS = 512


@pytest.fixture(scope="session")
def shared_cots(delta):
    """(CotSenderBatch, CotReceiverBatch) of 512 genuine base COTs."""
    gen = np.random.default_rng(42)
    choices = gen.integers(0, 2, N_SHARED_COTS).astype(np.uint8)
    r, y, _, _ = run_pair(
        lambda ch: base_cot_send(ch, N_SHARED_COTS, delta),
        lambda ch: base_cot_receive(ch, choices, np.random.default_rng(43)),
    )
    return CotSenderBatch(delta, r), CotReceiverBatch(choices, y)


@pytest.fixture
def cot_pools(shared_cots, delta):
    """Fresh consumable pools over the shared correlations."""
    s_batch, r_batch = shared_cots
    return (
        CotPool(sender=CotSenderBatch(delta, s_batch.z.copy())),
        CotPool(receiver=CotReceiverBatch(r_batch.x.copy(), r_batch.y.copy())),
    )
