"""The PCG-style OT extension protocol (Ferret, CCS'20), end to end.

One protocol instance lives through three phases (Section 2.3):

1. **setup** -- runs once: ``mint_base_cots(channel, n)`` creates ``n``
   genuine COT correlations with kappa = 128 seed OTs plus an
   IKNP-style COT extension (:mod:`repro.ot.base_ot`), and
   ``seed_base_cots`` carves the first ``k + c`` of them into the first
   iteration's state (``k`` feeding LPN, ``c`` feeding SPCOT's
   per-level OTs).  This is the "Init" bar of Figure 1(b).  The seed
   OTs are PKC unless ``mint_base_cots`` is handed ``seed_cots``, kappa
   COTs of an extension already running the other way (a service's
   reverse direction takes them from its forward mint).  A party that
   already holds base correlations (dealt ones in a test, say) loads
   them with ``seed_base_cots`` and runs no OT at all.
2. **extend** -- repeatable: an interactive multi-point SPCOT produces
   ``w = v XOR u*Delta`` over n points, then both parties *locally*
   LPN-encode, stretching k correlations into n.  The first
   ``k + c`` fresh correlations are carved, by the same
   ``seed_base_cots``, into the next iteration's state; the rest are
   the protocol's output.
3. Outputs can be converted to standard OTs via
   :mod:`repro.ot.ot_from_cot` (Figure 2).

Sender and receiver share one endpoint lifecycle (setup, carving,
snapshot / restore, :class:`ExtendStats`); each role adds only its mint
call and its protocol body.  They speak over a
:class:`repro.ot.channel.Channel`; :func:`ferret_pair` wires two of
them together in threads for tests and examples.

Each endpoint owns one extend workspace, sized once from its
configuration: the GGM level buffers and PRG state of
:func:`repro.spcot.mpcot.mpcot_buffers` and an LPN gather buffer.
MPCOT's output is a fresh array that the endpoint LPN-encodes in place,
so an extend allocates nothing large besides what it returns.  Endpoints
of one LPN shape and matrix seed share one read-only matrix
(:func:`repro.lpn.matrix.shared_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto import blocks
from repro.errors import ProtocolError
from repro.ferret.config import FerretConfig
from repro.lpn.encode import encode_bits, encode_blocks, gather_buffer
from repro.lpn.matrix import shared_matrix
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import Channel, run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch
from repro.spcot.mpcot import mpcot_buffers, mpcot_receive, mpcot_send, sample_alphas


@dataclass
class ExtendStats:
    """Per-iteration accounting surfaced to the benchmarks.

    Every field is a delta over one ``extend()`` call (bytes and rounds
    are snapshotted before/after, like ``prg_calls``), not a cumulative
    channel total.
    """

    n_output: int
    prg_calls: int
    bytes_sent: int
    rounds: int


def _require_base_cots(config: FerretConfig, *columns: np.ndarray) -> None:
    for column in columns:
        if column.shape[0] != config.base_cots_needed:
            raise ProtocolError(
                f"first iteration needs {config.base_cots_needed} base COTs, "
                f"got {column.shape[0]}"
            )


class _Endpoint:
    """What both roles share: the rng, PRG, LPN matrix and extend
    workspace, the carving of base COTs into an iteration's state,
    snapshot / restore and the per-extend accounting.  A role's base
    COTs are a tuple of columns (the sender's ``(r,)``, the receiver's
    ``(bits, y)``); it supplies :meth:`mint_base_cots`, :meth:`_batch`
    and :meth:`_iterate`."""

    def __init__(self, config: FerretConfig, seed: int):
        p = config.params
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.prg = config.make_prg()
        self.matrix = shared_matrix(p.n, p.k, config.matrix_seed)
        # The extend workspace: scratch every extend reuses, one
        # extend at a time.
        self._levels = mpcot_buffers(self.prg, p.n, p.t)
        self._gather = gather_buffer(p.n)
        self._lpn = None  # columns of k COTs feeding the next LPN encode
        self._spcot_pool = None  # CotPool for SPCOT per-level OTs
        self.iterations = 0
        self.last_stats = None

    def setup(self, channel: Channel) -> None:
        """One-time init: mint the first iteration's base COTs."""
        self.seed_base_cots(*self.mint_base_cots(channel, self.config.base_cots_needed))

    def seed_base_cots(self, *columns: np.ndarray) -> None:
        """Load ``base_cots_needed`` COTs of this role as the next
        iteration's state: the first ``k`` feed LPN, the rest SPCOT."""
        cfg = self.config
        _require_base_cots(cfg, *columns)
        k = cfg.params.k
        self._lpn = tuple(column[:k] for column in columns)
        self._spcot_pool = CotPool.of(self._batch(*(column[k:] for column in columns)))

    def snapshot(self) -> dict:
        """This endpoint's mutable mid-stream state.  ``extend`` is
        compute-then-commit except for the rng, the SPCOT base-COT
        cursor and the LPN seeds it swaps at the end, so restoring a
        snapshot makes a retried extend bit-compatible with the peer's
        fresh run.  The extend workspace is not part of it: it holds
        nothing from one extend to the next (the LPN seeds are copied
        out of the encoded output), and every extend overwrites it
        before reading it."""
        pool = self._spcot_pool
        return {
            "rng": self.rng.bit_generator.state,
            "lpn": self._lpn,
            "spcot_pool": pool,
            "spcot_cursor": None if pool is None else pool._cursor,
            "iterations": self.iterations,
        }

    def restore(self, snap: dict) -> None:
        """Roll back to a :meth:`snapshot`."""
        self.rng.bit_generator.state = snap["rng"]
        self._lpn = snap["lpn"]
        self._spcot_pool = snap["spcot_pool"]
        if self._spcot_pool is not None:
            self._spcot_pool._cursor = snap["spcot_cursor"]
        self.iterations = snap["iterations"]

    def extend(self, channel: Channel):
        """One OTE iteration; returns the net-new correlations."""
        if self._lpn is None:
            raise ProtocolError("setup() must run before extend()")
        cfg = self.config
        prev_calls = self.prg.total_calls
        prev_bytes = channel.stats.bytes_sent
        prev_rounds = channel.stats.rounds
        columns = self._iterate(channel)
        reserve = cfg.base_cots_needed
        self.seed_base_cots(*(column[:reserve].copy() for column in columns))
        self.iterations += 1
        self.last_stats = ExtendStats(
            n_output=cfg.params.n - reserve,
            prg_calls=self.prg.total_calls - prev_calls,
            bytes_sent=channel.stats.bytes_sent - prev_bytes,
            rounds=channel.stats.rounds - prev_rounds,
        )
        return self._batch(*(column[reserve:] for column in columns))


class FerretSender(_Endpoint):
    """The COT sender: holds the global Delta."""

    def __init__(self, config: FerretConfig, seed: int = 1):
        super().__init__(config, seed)
        self.delta = blocks.random_blocks(1, self.rng)

    def mint_base_cots(self, channel: Channel, n: int, seed_cots=None) -> tuple:
        """Run the base-COT protocol under ``self.delta`` for ``n`` COTs;
        returns ``(r,)``.  ``seed_cots`` (``KAPPA`` receiver COTs of the
        peer's extension) replace the PKC seed OTs."""
        return (base_cot_send(channel, n, self.delta, seed_cots),)

    def _batch(self, r: np.ndarray) -> CotSenderBatch:
        return CotSenderBatch(self.delta, r)

    def _iterate(self, channel: Channel) -> tuple:
        cfg = self.config
        w = mpcot_send(
            channel,
            self._spcot_pool,
            self.delta,
            self.prg,
            cfg.params.n,
            cfg.params.t,
            self.rng,
            buffers=self._levels,
        )
        return (encode_blocks(self.matrix, self._lpn[0], w, out=w, gather=self._gather),)


class FerretReceiver(_Endpoint):
    """The COT receiver: ends up with choice bits x and blocks y."""

    def __init__(self, config: FerretConfig, seed: int = 2):
        super().__init__(config, seed)

    def mint_base_cots(self, channel: Channel, n: int, seed_cots=None) -> tuple:
        """Mirror of the sender's (``seed_cots``: ``KAPPA`` sender COTs of
        this party's extension to the peer); returns ``(bits, y)``."""
        bits = self.rng.integers(0, 2, n).astype(np.uint8)
        return bits, base_cot_receive(channel, bits, self.rng, seed_cots)

    _batch = CotReceiverBatch

    def _iterate(self, channel: Channel) -> tuple:
        cfg = self.config
        alphas = sample_alphas(cfg.params.n, cfg.params.t, self.rng)
        u, v = mpcot_receive(
            channel,
            self._spcot_pool,
            alphas,
            self.prg,
            cfg.params.n,
            cfg.params.t,
            buffers=self._levels,
        )
        lpn_e, lpn_s = self._lpn
        return (
            encode_bits(self.matrix, lpn_e, u, out=u, gather=self._gather),
            encode_blocks(self.matrix, lpn_s, v, out=v, gather=self._gather),
        )


def ferret_pair(config: FerretConfig, rounds: int = 1, seed: int = 7) -> tuple:
    """Run setup + ``rounds`` extends between two in-memory parties.

    Returns (sender_batches, receiver_batches, sender_stats,
    receiver_stats): one output batch per round plus the channel
    accounting for the whole session.
    """
    sender = FerretSender(config, seed=seed)
    receiver = FerretReceiver(config, seed=seed + 1)

    def run_sender(channel):
        sender.setup(channel)
        return [sender.extend(channel) for _ in range(rounds)]

    def run_receiver(channel):
        receiver.setup(channel)
        return [receiver.extend(channel) for _ in range(rounds)]

    s_out, r_out, s_stats, r_stats = run_pair(run_sender, run_receiver)
    return s_out, r_out, s_stats, r_stats
