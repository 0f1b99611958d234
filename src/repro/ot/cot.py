"""Correlated OT (COT) correlation containers.

A batch of COT correlations with global key ``Delta`` (Figure 2):

* sender holds ``z_i`` (and ``Delta``), implicitly the pair
  ``(z_i, z_i XOR Delta)``;
* receiver holds a choice bit ``x_i`` and ``y_i = z_i XOR x_i * Delta``.

These containers are deliberately dumb: they hold numpy arrays, verify
the correlation invariant, and support the pool bookkeeping Ferret
needs (reserve some correlations to bootstrap the next iteration,
consume others for SPCOT's per-level OTs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto import blocks
from repro.errors import ParameterError, ProtocolError


@dataclass
class CotSenderBatch:
    """Sender's view of n COT correlations: blocks z and the global Delta."""

    delta: np.ndarray  # (1, 2)
    z: np.ndarray  # (n, 2)

    def __post_init__(self):
        blocks.require_blocks(self.delta, "delta")
        blocks.require_blocks(self.z, "z")
        if self.delta.shape[0] != 1:
            raise ParameterError("delta must be a single block")

    def __len__(self) -> int:
        return self.z.shape[0]

    def message_pairs(self) -> tuple:
        """The implicit OT message pairs (z, z XOR Delta)."""
        return self.z, blocks.xor(self.z, self.delta)

    def split(self, n_head: int) -> tuple:
        """Split into (first n_head, remainder) batches."""
        if n_head > len(self):
            raise ParameterError(f"cannot split {n_head} from a batch of {len(self)}")
        return (
            CotSenderBatch(self.delta, self.z[:n_head].copy()),
            CotSenderBatch(self.delta, self.z[n_head:].copy()),
        )


@dataclass
class CotReceiverBatch:
    """Receiver's view: choice bits x and blocks y = z XOR x * Delta."""

    x: np.ndarray  # (n,) uint8 choice bits
    y: np.ndarray  # (n, 2)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.uint8)
        blocks.require_blocks(self.y, "y")
        if self.x.shape[0] != self.y.shape[0]:
            raise ParameterError("choice-bit and block counts disagree")

    def __len__(self) -> int:
        return self.x.shape[0]

    def split(self, n_head: int) -> tuple:
        if n_head > len(self):
            raise ParameterError(f"cannot split {n_head} from a batch of {len(self)}")
        return (
            CotReceiverBatch(self.x[:n_head].copy(), self.y[:n_head].copy()),
            CotReceiverBatch(self.x[n_head:].copy(), self.y[n_head:].copy()),
        )


def verify_cot(sender: CotSenderBatch, receiver: CotReceiverBatch) -> bool:
    """Check the COT invariant z = y XOR x * Delta on every correlation."""
    if len(sender) != len(receiver):
        return False
    expected = blocks.xor(receiver.y, blocks.mul_bit(sender.delta, receiver.x))
    return bool(np.all(blocks.equal(sender.z, expected)))


@dataclass
class CotPool:
    """A consumable pool of COT correlations for one party.

    Ferret's iterations carve base correlations out of previous outputs;
    this pool tracks the cursor and refuses over-consumption loudly.
    Exactly one of (sender, receiver) roles is populated.
    """

    sender: CotSenderBatch = None
    receiver: CotReceiverBatch = None
    _cursor: int = field(default=0, repr=False)

    def __post_init__(self):
        if (self.sender is None) == (self.receiver is None):
            raise ParameterError("pool must hold exactly one of sender/receiver batch")

    @classmethod
    def of(cls, batch) -> "CotPool":
        """Wrap one batch in a pool of the batch's own role."""
        if isinstance(batch, CotSenderBatch):
            return cls(sender=batch)
        return cls(receiver=batch)

    @property
    def size(self) -> int:
        batch = self.sender if self.sender is not None else self.receiver
        return len(batch)

    @property
    def remaining(self) -> int:
        return self.size - self._cursor

    def take_sender(self, n: int) -> CotSenderBatch:
        """Consume n sender correlations."""
        if self.sender is None:
            raise ProtocolError("this pool holds receiver correlations")
        if n > self.remaining:
            raise ProtocolError(f"pool exhausted: want {n}, have {self.remaining}")
        out = CotSenderBatch(self.sender.delta, self.sender.z[self._cursor : self._cursor + n])
        self._cursor += n
        return out

    def take_receiver(self, n: int) -> CotReceiverBatch:
        """Consume n receiver correlations."""
        if self.receiver is None:
            raise ProtocolError("this pool holds sender correlations")
        if n > self.remaining:
            raise ProtocolError(f"pool exhausted: want {n}, have {self.remaining}")
        sl = slice(self._cursor, self._cursor + n)
        out = CotReceiverBatch(self.receiver.x[sl], self.receiver.y[sl])
        self._cursor += n
        return out
