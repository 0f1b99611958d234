"""The recipe table: every production op of the service, stated once.

One :class:`Recipe` per op says everything that is particular to a
correlation kind -- opcode, ``prov/ctl`` frame layout, ``prov/*`` data
tag, pool spec, the pools it consumes and how many items of each one
output item costs, its batch cap, and the generator call.  The generic
halves read it: :class:`repro.runtime.service.CorrelationService`
(scheduler, frame codec, executor, stale-command alignment, pool
factory), :meth:`repro.runtime.service.ServiceSession.draw` (a
consumer's ``(pool kind, key, count)`` requests name kinds of this
table) and the planner in :mod:`repro.ppml.plan` (the same requests,
summed, plus the internal-demand walk over ``inputs``).  Adding a kind
is one entry here plus its generator and its pool class; a verb
consumes it by naming it in its ``*_draws`` list.

:data:`RECIPES` is in scheduling priority order: extends first (the
only source of raw COTs), then derived production.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.mpc.matmul import MatmulDims, generate_matrix_triples, matmul_cots
from repro.mpc.triples import generate_bit_triples, generate_ring_triples
from repro.mpc.truncation import (
    generate_trunc_pairs,
    trunc_pair_bit_triples,
    trunc_pair_cots,
)
from repro.ot.cot import CotPool, CotSenderBatch
from repro.ot.ot_from_cot import cot_to_random_ot_receiver, cot_to_random_ot_sender
from repro.runtime.pool import (
    CorrelationPool,
    MatrixTriplePool,
    ReceiverCotPool,
    RingTriplePool,
    SenderCotPool,
    TriplePool,
    TruncPairPool,
)

#: Most random OTs one ROT command converts.
ROT_CHUNK = 512

#: Pools filled by preprocessing plans only (absolute produce targets,
#: one-shot prefills): no standing watermark refill.
_PLAN_DRIVEN = {"low_watermark": 0, "high_watermark": 0}


@dataclass(eq=False)
class Recipe:
    """How one kind of correlation is commanded, fed, made and pooled.

    ``layout`` names the u64 slots of the command frame after the
    4-byte opcode: ``n`` item count (absent: one item per command),
    ``k`` one element of the target pool's key, ``v`` the input
    variant, ``o`` the reserved offset of the next input (zero once the
    inputs run out).  ``inputs(bits, *key)`` lists ``(source pool kind,
    source items per output item)``; with ``choose`` set a command
    consumes only the one input ``choose(pools)`` indexes, and carries
    that index as its variant.  ``produce(svc, channel, pool, cmd,
    *taken)`` returns the batch to append, given the inputs taken in
    ``inputs`` order.
    """

    op: bytes
    layout: str
    kind: str  # pool name, or its prefix when ``key_for`` names keyed pools
    label: str  # for error messages
    pool: Callable  # (svc, name, *key) -> CorrelationPool
    inputs: Callable
    produce: Callable
    cap: Callable = None  # (tuning) -> most items one command produces
    on: Callable = None  # (tuning) -> made at construction; None: on first use
    tag: str = None  # data sub-channel; None for a local conversion
    key_for: Callable = None
    choose: Callable = None
    direction: str = None  # extends only: the Ferret endpoint they run

    def __post_init__(self):
        self.frame = struct.Struct("<4s" + "Q" * len(self.layout))
        self.name = self.op.rstrip(b"\x00").decode()  # the ``produce.<OP>`` span

    def pool_name(self, *key) -> str:
        return self.key_for(*key) if key else self.kind


class Command(NamedTuple):
    """One production command, as scheduled, framed and replayed."""

    recipe: Recipe
    key: tuple = ()  # target pool key: (m, k, n), (frac,) or ()
    n: int = 0  # items to produce
    variant: int = 0
    offsets: tuple = ()  # absolute start of each input's reserved range


def sends(party: int, direction: str) -> bool:
    """Party 0 is the COT sender forward, party 1 in reverse."""
    return (party == 0) == (direction == "fwd")


# -- pool specs ---------------------------------------------------------------
def _cot_pool(direction: str):
    def make(svc, name):
        if sends(svc.party, direction):
            return SenderCotPool(name, svc._endpoint(direction).delta, **svc._cot_marks)
        return ReceiverCotPool(name, **svc._cot_marks)

    return make


# -- generators ---------------------------------------------------------------
# Tweak bases are the absolute pool offsets of the consumed ranges, so
# both parties hash with matching tweaks.
def _by_role(svc, cmd, fwd, rev) -> list:
    """The two directions' ``(CotPool, offset)``, this party's sender
    role first."""
    pairs = [(CotPool.of(fwd), cmd.offsets[0]), (CotPool.of(rev), cmd.offsets[1])]
    return pairs if sends(svc.party, "fwd") else pairs[::-1]


def _bit_triples(svc, ch, pool, cmd, fwd, rev):
    """Both workers run one triple-generation batch in lockstep."""
    (send, _), (recv, _) = _by_role(svc, cmd, fwd, rev)
    return generate_bit_triples(
        ch, cmd.n, send, recv, svc._rng, party=svc.party, tweak_base=cmd.offsets[0]
    )


def _ring_triples(svc, ch, pool, cmd, fwd, rev):
    """Lockstep Gilboa ring-triple batch over both COT directions."""
    (send, send_lo), (recv, recv_lo) = _by_role(svc, cmd, fwd, rev)
    return generate_ring_triples(
        ch, cmd.n, pool.bits, send, recv, svc._rng,
        party=svc.party, send_tweak_base=send_lo, recv_tweak_base=recv_lo,
    )


def _richer_direction(pools) -> int:
    """A matrix triple consumes its whole COT demand from ONE direction
    -- whichever has more stock -- because the Gilboa sender role for
    both cross terms belongs to that direction's COT sender."""
    return int("cot/rev" in pools and pools["cot/rev"].level > pools["cot/fwd"].level)


def _matrix_triple(svc, ch, pool, cmd, cots):
    """Variant 0 draws from cot/fwd (party 0 is the Ferret -- and
    therefore Gilboa -- sender), 1 from cot/rev (party 1 sends): both
    Fig 16 role directions are live code paths picked by stock."""
    return generate_matrix_triples(
        ch, MatmulDims(*cmd.key), pool.bits, CotPool.of(cots), svc._rng,
        party=svc.party, ot_sender=cmd.variant, tweak_base=cmd.offsets[0],
    )


def _trunc_pairs(svc, ch, pool, cmd, cots, triples):
    """Party 0 is the millionaires'/Gilboa OT sender (the forward COT
    direction), mirroring the online wrap-fixed protocol's roles."""
    return generate_trunc_pairs(
        ch, cmd.n, pool.bits, pool.frac_bits, CotPool.of(cots), triples, svc._rng,
        party=svc.party, tweak_base=cmd.offsets[0],
    )


def _random_ots(svc, ch, pool, cmd, cots):
    """Figure 2 conversion of pooled COTs into random OTs (local)."""
    convert = (
        cot_to_random_ot_sender
        if isinstance(cots, CotSenderBatch)
        else cot_to_random_ot_receiver
    )
    return convert(cots, tweak_base=cmd.offsets[0])


# -- the table ----------------------------------------------------------------
def _extend(op: bytes, direction: str, label: str, on: Callable) -> Recipe:
    return Recipe(
        op=op, layout="noo", kind=f"cot/{direction}", label=label,
        tag=f"prov/{direction}", direction=direction,
        on=on, pool=_cot_pool(direction),
        inputs=lambda bits: (),
        produce=lambda svc, ch, pool, cmd: svc._run_extend(direction, ch),
    )


def _rot(op: bytes, direction: str, on: Callable) -> Recipe:
    return Recipe(
        op=op, layout="noo", kind=f"rot/{direction}", label="random-OT",
        on=on,
        # Either role's view is two plain columns: (m0, m1) or (choice, chosen).
        pool=lambda svc, name: CorrelationPool(
            name, 2, low_watermark=svc.tuning.rot_low, high_watermark=svc.tuning.rot_high
        ),
        inputs=lambda bits: ((f"cot/{direction}", 1),),
        cap=lambda t: ROT_CHUNK,
        produce=_random_ots,
    )


EXT0 = _extend(b"EXT0", "fwd", "forward-COT", on=lambda t: True)
EXT1 = _extend(b"EXT1", "rev", "reverse-COT", on=lambda t: t.enable_reverse)
TRI = Recipe(
    op=b"TRI\x00", layout="noo", kind="tri", label="bit-triple", tag="prov/tri",
    on=lambda t: t.enable_triples,
    pool=lambda svc, name: TriplePool(
        name, low_watermark=svc.tuning.triple_low, high_watermark=svc.tuning.triple_high
    ),
    inputs=lambda bits: (("cot/fwd", 1), ("cot/rev", 1)),
    cap=lambda t: t.triple_chunk,
    produce=_bit_triples,
)
RTRI = Recipe(
    op=b"RTRI", layout="noo", kind="rtri", label="ring-triple", tag="prov/rtri",
    # Unset, ring triples follow the reverse direction they need.
    on=lambda t: (
        t.enable_reverse if t.enable_ring_triples is None else t.enable_ring_triples
    ),
    pool=lambda svc, name: RingTriplePool(name, svc.tuning.ring_bits, **_PLAN_DRIVEN),
    inputs=lambda bits: (("cot/fwd", bits), ("cot/rev", bits)),
    cap=lambda t: t.rtri_chunk,
    produce=_ring_triples,
)
MTRI = Recipe(
    op=b"MTRI", layout="kkkvo", kind="mtri", label="matrix-triple", tag="prov/mtri",
    key_for=MatrixTriplePool.key_for,
    pool=lambda svc, name, m, k, n: MatrixTriplePool(
        name, m, k, n, svc.tuning.ring_bits, **_PLAN_DRIVEN
    ),
    inputs=lambda bits, m, k, n: tuple(
        (src, matmul_cots(MatmulDims(m, k, n), bits)) for src in ("cot/fwd", "cot/rev")
    ),
    choose=_richer_direction,
    cap=lambda t: 1,
    produce=_matrix_triple,
)
#: Derived-of-derived: pairs consume forward COTs *and* pooled bit
#: triples.  Deep deficits fuse up to ``tprc_batch_chunks`` chunks into
#: ONE command when stock allows, so pair production pays the
#: millionaires'/B2A opening rounds once per fused batch.
TPRC = Recipe(
    op=b"TPRC", layout="nkoo", kind="tprc", label="truncation-pair", tag="prov/tprc",
    key_for=TruncPairPool.key_for,
    pool=lambda svc, name, frac: TruncPairPool(
        name, svc.tuning.ring_bits, frac, **_PLAN_DRIVEN
    ),
    inputs=lambda bits, frac: (
        ("cot/fwd", trunc_pair_cots(bits, frac)),
        ("tri", trunc_pair_bit_triples(bits, frac)),
    ),
    cap=lambda t: t.tprc_chunk * max(1, t.tprc_batch_chunks),
    produce=_trunc_pairs,
)
ROT0 = _rot(b"ROT0", "fwd", on=lambda t: t.enable_rots)
ROT1 = _rot(b"ROT1", "rev", on=lambda t: t.enable_rots and t.enable_reverse)

RECIPES = (EXT0, EXT1, TRI, RTRI, MTRI, TPRC, ROT0, ROT1)
BY_OP = {recipe.op: recipe for recipe in RECIPES}
BY_KIND = {recipe.kind: recipe for recipe in RECIPES}
