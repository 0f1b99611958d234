"""The PCG-style OT extension protocol (Ferret, CCS'20), end to end.

One protocol instance lives through three phases (Section 2.3):

1. **setup** -- runs once: kappa = 128 seed OTs plus an IKNP-style
   COT extension (:mod:`repro.ot.base_ot`) create ``k + c`` genuine COT
   correlations (``k`` feeding LPN, ``c`` feeding SPCOT's per-level
   OTs).  This is the "Init" bar of Figure 1(b).  The seed OTs are PKC
   unless ``mint_base_cots`` is handed ``seed_cots``, kappa COTs of an
   extension already running the other way (a service's reverse
   direction takes them from its forward mint, which asks for them as
   ``spare`` rows).  A party that already holds base correlations (a
   shard worker given its slice of the parent's) loads them with
   ``seed_base_cots`` and runs no OT at all.
2. **extend** -- repeatable: an interactive multi-point SPCOT produces
   ``w = v XOR u*Delta`` over n points, then both parties *locally*
   LPN-encode, stretching k correlations into n.  The first
   ``k + c`` fresh correlations are reserved to bootstrap the next
   iteration; the rest are the protocol's output.
3. Outputs can be converted to standard OTs via
   :mod:`repro.ot.ot_from_cot` (Figure 2).

Sender and receiver are symmetric classes speaking over a
:class:`repro.ot.channel.Channel`; :func:`ferret_pair` wires two of
them together in threads for tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crypto import blocks
from repro.errors import ProtocolError
from repro.ferret.config import FerretConfig
from repro.lpn.encode import encode_bits, encode_blocks
from repro.lpn.matrix import generate_matrix
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import Channel, run_pair
from repro.ot.cot import CotPool, CotReceiverBatch, CotSenderBatch
from repro.spcot.mpcot import mpcot_receive, mpcot_send, sample_alphas


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


def _stream_state(ep) -> dict:
    """The mid-stream state both endpoints share: the rng, the SPCOT
    base-COT pool and its cursor, the iteration count."""
    pool = ep._spcot_pool
    return {
        "rng": ep.rng.bit_generator.state,
        "spcot_pool": pool,
        "spcot_cursor": None if pool is None else pool._cursor,
        "iterations": ep.iterations,
    }


def _restore_stream_state(ep, snap: dict) -> None:
    ep.rng.bit_generator.state = snap["rng"]
    ep._spcot_pool = snap["spcot_pool"]
    if ep._spcot_pool is not None:
        ep._spcot_pool._cursor = snap["spcot_cursor"]
    ep.iterations = snap["iterations"]


def _require_base_cots(config: FerretConfig, *columns: np.ndarray) -> None:
    for column in columns:
        if column.shape[0] != config.base_cots_needed:
            raise ProtocolError(
                f"first iteration needs {config.base_cots_needed} base COTs, "
                f"got {column.shape[0]}"
            )


class FerretSender:
    """The COT sender: holds the global Delta."""

    def __init__(self, config: FerretConfig, seed: int = 1):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.delta = blocks.random_blocks(1, self.rng)
        self.prg = config.make_prg()
        self.matrix = generate_matrix(
            config.params.n, config.params.k, config.matrix_seed
        )
        self._lpn_r = None  # (k, 2) blocks feeding the next LPN encode
        self._spcot_pool = None  # CotPool for SPCOT per-level OTs
        self.iterations = 0
        self.last_stats = None

    def setup(self, channel: Channel) -> None:
        """One-time init: mint the first iteration's base COTs."""
        self.seed_base_cots(*self.mint_base_cots(channel))

    def mint_base_cots(
        self, channel: Channel, copies: int = 1, spare: int = 0, seed_cots=None
    ) -> tuple:
        """Run the base-COT protocol under ``self.delta`` for ``copies``
        first iterations at once; returns ``(r,)``, whose consecutive
        ``base_cots_needed``-row slices each fit :meth:`seed_base_cots`,
        followed by ``spare`` more rows.  ``seed_cots`` (``KAPPA``
        receiver COTs of the peer's extension) replace the PKC seed OTs."""
        need = copies * self.config.base_cots_needed + spare
        return (base_cot_send(channel, need, self.delta, self.rng, seed_cots),)

    def seed_base_cots(self, r: np.ndarray) -> None:
        """Load ``base_cots_needed`` sender COTs under ``self.delta`` as
        the first iteration's state (what :meth:`setup` mints itself)."""
        cfg = self.config
        _require_base_cots(cfg, r)
        self._lpn_r = r[: cfg.params.k]
        self._spcot_pool = CotPool(
            sender=CotSenderBatch(self.delta, r[cfg.params.k :])
        )

    def snapshot(self) -> dict:
        """This endpoint's mutable mid-stream state.  ``extend`` is
        compute-then-commit except for the rng, the SPCOT base-COT
        cursor and the LPN seeds it swaps at the end, so restoring a
        snapshot makes a retried extend bit-compatible with the peer's
        fresh run."""
        return {**_stream_state(self), "lpn_r": self._lpn_r}

    def restore(self, snap: dict) -> None:
        """Roll back to a :meth:`snapshot`."""
        _restore_stream_state(self, snap)
        self._lpn_r = snap["lpn_r"]

    def extend(self, channel: Channel) -> CotSenderBatch:
        """One OTE iteration; returns the net-new sender correlations."""
        if self._lpn_r is None:
            raise ProtocolError("setup() must run before extend()")
        cfg = self.config
        prev_calls = self.prg.total_calls
        prev_bytes = channel.stats.bytes_sent
        prev_rounds = channel.stats.rounds
        w = mpcot_send(
            channel,
            self._spcot_pool,
            self.delta,
            self.prg,
            cfg.params.n,
            cfg.params.t,
            self.rng,
        )
        z = encode_blocks(self.matrix, self._lpn_r, w)
        reserve = cfg.base_cots_needed
        self._lpn_r = z[: cfg.params.k].copy()
        self._spcot_pool = CotPool(
            sender=CotSenderBatch(self.delta, z[cfg.params.k : reserve].copy())
        )
        self.iterations += 1
        self.last_stats = ExtendStats(
            n_output=cfg.params.n - reserve,
            prg_calls=self.prg.total_calls - prev_calls,
            bytes_sent=channel.stats.bytes_sent - prev_bytes,
            rounds=channel.stats.rounds - prev_rounds,
        )
        return CotSenderBatch(self.delta, z[reserve:])


class FerretReceiver:
    """The COT receiver: ends up with choice bits x and blocks y."""

    def __init__(self, config: FerretConfig, seed: int = 2):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.prg = config.make_prg()
        self.matrix = generate_matrix(
            config.params.n, config.params.k, config.matrix_seed
        )
        self._lpn_e = None  # (k,) choice bits
        self._lpn_s = None  # (k, 2) blocks
        self._spcot_pool = None
        self.iterations = 0
        self.last_stats = None

    def setup(self, channel: Channel) -> None:
        """One-time init, mirror of the sender's."""
        self.seed_base_cots(*self.mint_base_cots(channel))

    def mint_base_cots(
        self, channel: Channel, copies: int = 1, spare: int = 0, seed_cots=None
    ) -> tuple:
        """Mirror of the sender's (``seed_cots``: ``KAPPA`` sender COTs of
        this party's extension to the peer); returns ``(bits, y)``."""
        need = copies * self.config.base_cots_needed + spare
        bits = self.rng.integers(0, 2, need).astype(np.uint8)
        return bits, base_cot_receive(channel, bits, self.rng, seed_cots)

    def seed_base_cots(self, bits: np.ndarray, y: np.ndarray) -> None:
        """Load ``base_cots_needed`` receiver COTs ``(bits, y)`` as the
        first iteration's state (what :meth:`setup` mints itself)."""
        cfg = self.config
        _require_base_cots(cfg, bits, y)
        self._lpn_e = bits[: cfg.params.k]
        self._lpn_s = y[: cfg.params.k]
        self._spcot_pool = CotPool(
            receiver=CotReceiverBatch(bits[cfg.params.k :], y[cfg.params.k :])
        )

    def snapshot(self) -> dict:
        """Mirror of :meth:`FerretSender.snapshot`."""
        return {**_stream_state(self), "lpn_e": self._lpn_e, "lpn_s": self._lpn_s}

    def restore(self, snap: dict) -> None:
        """Roll back to a :meth:`snapshot`."""
        _restore_stream_state(self, snap)
        self._lpn_e, self._lpn_s = snap["lpn_e"], snap["lpn_s"]

    def extend(self, channel: Channel) -> CotReceiverBatch:
        """One OTE iteration; returns the net-new receiver correlations."""
        if self._lpn_e is None:
            raise ProtocolError("setup() must run before extend()")
        cfg = self.config
        prev_calls = self.prg.total_calls
        prev_bytes = channel.stats.bytes_sent
        prev_rounds = channel.stats.rounds
        alphas = sample_alphas(cfg.params.n, cfg.params.t, self.rng)
        u, v = mpcot_receive(
            channel,
            self._spcot_pool,
            alphas,
            self.prg,
            cfg.params.n,
            cfg.params.t,
        )
        x = encode_bits(self.matrix, self._lpn_e, u)
        y = encode_blocks(self.matrix, self._lpn_s, v)
        reserve = cfg.base_cots_needed
        self._lpn_e = x[: cfg.params.k].copy()
        self._lpn_s = y[: cfg.params.k].copy()
        self._spcot_pool = CotPool(
            receiver=CotReceiverBatch(
                x[cfg.params.k : reserve].copy(), y[cfg.params.k : reserve].copy()
            )
        )
        self.iterations += 1
        self.last_stats = ExtendStats(
            n_output=cfg.params.n - reserve,
            prg_calls=self.prg.total_calls - prev_calls,
            bytes_sent=channel.stats.bytes_sent - prev_bytes,
            rounds=channel.stats.rounds - prev_rounds,
        )
        return CotReceiverBatch(x[reserve:], y[reserve:])


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
