"""Every online opening checks the length the peer sent: a short, an
over-long or a 1-element reply is a ProtocolError at the receiving
site, never a numpy error or -- for a 1-element reply that numpy would
broadcast -- silently wrong shares.  The check itself lives in the
channel codec (``Channel.recv_lanes``); these sites pin that every
opening goes through it with the shape an honest peer sends."""

import numpy as np
import pytest
from parties import ScriptedChannel, frame

from repro.errors import ProtocolError
from repro.mpc.matmul import matmul_online
from repro.mpc.triples import (
    and_shared,
    dealer_bit_triples,
    dealer_matrix_triples,
    gilboa_receive,
    gilboa_send,
)
from repro.ot.testing import fake_cots

N, BITS = 5, 16
M, K = 2, 3  # a (M, K) @ (K, N) matmul opens M*K + K*N lanes


def and_site(count):
    t0, _ = dealer_bit_triples(N, np.random.default_rng(0))
    zeros = np.zeros(N, np.uint8)
    and_shared(ScriptedChannel([frame(count, 1)]), t0, zeros, zeros, party=0)


def gilboa_send_site(count):
    """Party 0 of exact truncation's B2A: the peer sends the correction bits."""
    sender, _ = fake_cots(N)
    tweaks = np.arange(N, dtype=np.uint64)
    corr = np.ones((N, 1), np.uint64)
    list(gilboa_send(
        ScriptedChannel([frame(count, 1)]), sender, lambda a, b: corr[a:b], 1, BITS, tweaks, N
    ))


def gilboa_site(count):
    """Party 1 of the B2A: all N payload lanes in one frame."""
    _, receiver = fake_cots(N)
    tweaks = np.arange(N, dtype=np.uint64)
    list(gilboa_receive(
        ScriptedChannel([frame(count, BITS)]), receiver, np.ones(N, np.uint8), 1, BITS, tweaks, N
    ))


def gilboa_stream_site(count):
    """A matrix triple's streamed payload: the first of several row
    blocks is the wrong length."""
    _, receiver = fake_cots(N)
    tweaks = np.arange(N, dtype=np.uint64)
    list(gilboa_receive(
        ScriptedChannel([frame(count, BITS), frame(2, BITS), frame(1, BITS)]),
        receiver, np.ones(N, np.uint8), 1, BITS, tweaks, 2,
    ))


def matmul_site(count):
    t0, _ = dealer_matrix_triples(M, K, N, BITS, np.random.default_rng(0))
    x, y = np.zeros((M, K), np.uint64), np.zeros((K, N), np.uint64)
    matmul_online(ScriptedChannel([frame(count, BITS)]), x, y, t0, party=0)


#: (site, the element count an honest peer sends).
SITES = {
    "and_shared": (and_site, 2 * N),
    "gilboa_send": (gilboa_send_site, N),
    "gilboa_receive": (gilboa_site, N),
    "gilboa_receive_stream": (gilboa_stream_site, 2),
    "matmul_online": (matmul_site, M * K + K * N),
}


@pytest.mark.parametrize("reply", ["short", "long", "one"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_wrong_length_reply_is_a_protocol_error(site, reply):
    run, honest = SITES[site]
    count = {"short": honest - 1, "long": honest + 1, "one": 1}[reply]
    with pytest.raises(ProtocolError):
        run(count)


@pytest.mark.parametrize("site", sorted(SITES))
def test_honest_length_passes(site):
    run, honest = SITES[site]
    run(honest)
