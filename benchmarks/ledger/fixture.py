"""The one place the ledger builds what it measures.

Channel pairs, the Ferret scale, ``ServiceTuning``, the service + daemon
pair, the model with its weight/input shares and numpy oracle, and the
dealt LPN inputs all come from here, seeded by ``--seed``; the program
under test only ever receives the generated inputs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.crypto import blocks
from repro.ferret.config import FerretConfig
from repro.lpn.matrix import generate_matrix
from repro.lpn.params import TABLE4_BY_LABEL
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import SocketChannel
from repro.ppml.layers import Activation, Graph, Linear, Rescale
from repro.runtime import (
    CorrelationService,
    DaemonConfig,
    InferenceDaemon,
    MuxChannel,
    ServiceTuning,
)

from spans import TimedChannel

#: Bound on every blocking wait, so a desynchronised pair fails the run
#: well inside the driver's 180 s cap instead of hanging it.
TIMEOUT_S = 60.0
#: PKC setup of both directions takes ~30 s on a 2-core host.
READY_TIMEOUT_S = 120.0

RING_BITS = 16
RING_MASK = ring_mask_u64(RING_BITS)
FX = FixedPointConfig(bits=RING_BITS, frac_bits=4, mag_bits=9)
#: Graph((4,24)) -> Linear(24) -> Rescale -> ReLU -> Linear(12)
MODEL_DIMS = (4, 24, 24, 12)

LPN_PAPER = TABLE4_BY_LABEL["2^20"]
LPN_MATRIX_SEED = 0xFE44E7


def ferret_config() -> FerretConfig:
    """The one protocol scale: n = 19086, k = 2625, t = 7."""
    return FerretConfig.small(scale=64, arity=4, prg_kind="chacha8")


class PartyPair:
    """Two long-lived party threads (named ``<name>-p0`` / ``<name>-p1``).

    The threads persist across ops because the program keeps per-thread
    state (the ChaCha state-template cache); a fresh thread per op would
    time its rebuild instead of the steady state.
    """

    def __init__(self, name: str):
        self._pools = tuple(
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"{name}-p{party}")
            for party in (0, 1)
        )

    def run(self, fn0, fn1) -> tuple:
        """Run one callable per party concurrently; re-raises either error."""
        futures = (self._pools[0].submit(fn0), self._pools[1].submit(fn1))
        return futures[0].result(), futures[1].result()

    def run_on(self, party: int, fn):
        return self._pools[party].submit(fn).result()

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)


def channel_pair(transport, recorder, name: str) -> tuple:
    """A connected endpoint pair of ``LocalChannel`` or ``SocketChannel``,
    behind timing proxies when the run is traced."""
    ends = transport.pair(timeout=TIMEOUT_S)
    if recorder is None:
        return ends
    return tuple(TimedChannel(end, recorder, party, name) for party, end in enumerate(ends))


# -- LPN at paper scale -------------------------------------------------------


@dataclass
class LpnInputs:
    """Dealt correlated inputs of one LPN round: the sender's ``r, w`` and
    the receiver's ``e, s, u, v`` with ``r = s ^ e*delta``, ``w = v ^ u*delta``."""

    delta: np.ndarray
    r: np.ndarray
    w: np.ndarray
    e: np.ndarray
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray


def lpn_matrix():
    """The public 10-local matrix of the Table 4 2^20 shape."""
    return generate_matrix(LPN_PAPER.n, LPN_PAPER.k, LPN_MATRIX_SEED)


def deal_lpn(seed: int) -> LpnInputs:
    """Dealer-style correlated inputs for one round at that shape."""
    p = LPN_PAPER
    rng = np.random.default_rng([seed, 0x1B])
    delta = blocks.random_blocks(1, rng)
    s = blocks.random_blocks(p.k, rng)
    e = rng.integers(0, 2, p.k).astype(np.uint8)
    v = blocks.random_blocks(p.n, rng)
    u = np.zeros(p.n, dtype=np.uint8)
    u[rng.choice(p.n, p.t, replace=False)] = 1
    return LpnInputs(
        delta=delta,
        r=blocks.xor(s, blocks.mul_bit(delta, e)),
        w=blocks.xor(v, blocks.mul_bit(delta, u)),
        e=e, s=s, u=u, v=v,
    )


# -- the quantized MLP --------------------------------------------------------


@dataclass
class Model:
    graph: Graph
    weight_shares: tuple  # per party: [w1 share, w2 share]
    w1: np.ndarray
    w2: np.ndarray

    def oracle(self, x: np.ndarray) -> np.ndarray:
        """The numpy fixed-point reference every request must equal."""
        hidden = np.maximum((x @ self.w1) >> FX.frac_bits, 0)
        return ((hidden @ self.w2).astype(np.int64) & int(RING_MASK)).astype(np.uint64)


def _share(values: np.ndarray, rng) -> tuple:
    return share_arith_nd(from_signed(values, RING_BITS), rng, bits=RING_BITS)


def build_model(seed: int) -> Model:
    m, k, hidden, out = MODEL_DIMS
    graph = Graph("ledger-mlp", (m, k))
    graph.add(Linear(hidden))
    graph.add(Rescale())
    graph.add(Activation("relu"))
    graph.add(Linear(out))
    rng = np.random.default_rng([seed, 0x30DE1])
    w1 = rng.integers(-4, 4, (k, hidden))
    w2 = rng.integers(-4, 4, (hidden, out))
    w1s, w2s = _share(w1, rng), _share(w2, rng)
    return Model(graph, ([w1s[0], w2s[0]], [w1s[1], w2s[1]]), w1, w2)


def request_input(seed: int, client: int, index: int) -> tuple:
    """(plaintext x, per-party input shares) of one request."""
    rng = np.random.default_rng([seed, 0x1A9, client, index])
    x = rng.integers(-8, 8, MODEL_DIMS[:2])
    return x, _share(x, rng)


# -- service + daemon pair ----------------------------------------------------


def service_tuning() -> ServiceTuning:
    # Watermark refills of derived pools and ROTs off: every correlation
    # is plan-driven, so per-request command counts are exact.
    return ServiceTuning(
        ring_bits=RING_BITS,
        triple_low=0, triple_high=0, triple_chunk=512,
        rtri_chunk=128,
        enable_rots=False,
        take_timeout_s=TIMEOUT_S,
    )


class ServingStack:
    """Both parties' link, mux, service and daemon as threads of this
    process, over one real socket pair."""

    def __init__(self, seed: int, clients: int, recorder=None):
        self.model = build_model(seed)
        self.links = channel_pair(SocketChannel, recorder, "link")
        self.muxes = tuple(MuxChannel(link, timeout=TIMEOUT_S) for link in self.links)
        config = ferret_config()
        self.services = tuple(
            CorrelationService(party, mux, config, service_tuning(), seed=seed)
            for party, mux in enumerate(self.muxes)
        )
        dcfg = DaemonConfig(
            max_inflight=clients + 1, session_inflight=2,
            lease_ttl_s=TIMEOUT_S, request_timeout_s=TIMEOUT_S,
        )
        self.daemons = tuple(
            InferenceDaemon(svc, self.model.graph, weights, fx=FX, cfg=dcfg)
            for svc, weights in zip(self.services, self.model.weight_shares)
        )
        self._started = False

    def start(self) -> None:
        """Run PKC setup on both parties, then start the daemons -- the
        point a client could first submit."""
        for svc in self.services:
            svc.start()
        for svc in self.services:
            svc.wait_ready(READY_TIMEOUT_S)
        for daemon in self.daemons:
            daemon.start()
        self._started = True

    @property
    def plan(self):
        return self.daemons[0].plan

    def endpoints(self, party: int) -> tuple:
        svc = self.services[party]
        return tuple(ep for ep in (svc.ferret_fwd, svc.ferret_rev) if ep is not None)

    def teardown(self) -> list:
        """Stop everything; returns the invariant violations found: a
        leaked reservation (reserved but never taken on the allocating
        party), a parked out-of-order segment, or a worker error."""
        problems = []
        if self._started:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for stop in [pool.submit(d.stop, TIMEOUT_S) for d in self.daemons]:
                    stop.result()
        # Pool counters are read only after the workers have joined, so
        # no production command is mid-flight between reserve and take.
        for svc in self.services:
            try:
                svc.stop()
            except Exception as exc:  # noqa: BLE001 - reported as a failed gate
                problems.append(f"party {svc.party} service stop: {exc!r}")
        for svc in self.services:
            for kind, pool in svc.pools.items():
                if pool.pending_segments:
                    problems.append(
                        f"party {svc.party} pool {kind}: "
                        f"{pool.pending_segments} parked segments"
                    )
                leaked = pool.reserved - pool.stats.items_drawn
                if svc.party == 0 and leaked:
                    problems.append(f"pool {kind}: {leaked} reserved items never taken")
        for mux in self.muxes:
            mux.close()
        for link in self.links:
            link.close()
        return problems
