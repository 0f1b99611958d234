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
summed).  :func:`expand` is the one walk over ``inputs`` that turns
draws into the production behind them; the planner, the pipelined
prefill and :meth:`repro.runtime.service.CorrelationService.prefill`
all ask for production through it.  Adding a kind is one entry here
plus its generator and its pool class; a verb consumes it by naming it
in its ``*_draws`` list.

:data:`RECIPES` is in scheduling priority order: extends first (the
only source of raw COTs), then derived production.  Every derived
recipe's inputs are raw-COT pools, so a starved derived kind is fed by
one extend and never by other derived production.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.mpc.matmul import MatmulDims, generate_matrix_triples, matmul_cots
from repro.mpc.triples import generate_bit_triples
from repro.ot.cot import CotPool
from repro.runtime.pool import (
    MatrixTriplePool,
    ReceiverCotPool,
    SenderCotPool,
    TriplePool,
)

#: Pools filled by absolute produce targets (plans, prefills) and by
#: draws that outrun production: no standing watermark refill.  Only
#: the raw-COT pools keep one.
_PLAN_DRIVEN = {"low_watermark": 0, "high_watermark": 0}


@dataclass(eq=False)
class Recipe:
    """How one kind of correlation is commanded, fed, made and pooled.

    ``layout`` names the u64 slots of the command frame after the
    4-byte opcode: ``n`` item count (absent: one item per command),
    ``k`` one element of the target pool's key, ``o`` the reserved
    offset of the next input (zero once the inputs run out).
    ``inputs(bits, *key)`` lists ``(source pool kind, source items per
    output item)``; every command consumes all of them.  ``produce(svc,
    channel, pool, cmd, *taken)`` returns the batch to append, given the
    inputs taken in ``inputs`` order.
    """

    op: bytes
    layout: str
    kind: str  # pool name, or its prefix when ``key_for`` names keyed pools
    label: str  # for error messages
    pool: Callable  # (svc, name, *key) -> CorrelationPool
    inputs: Callable
    produce: Callable
    tag: str  # data sub-channel
    cap: Callable = None  # (tuning) -> most items one command produces
    key_for: Callable = None
    direction: str = None  # extends only: the Ferret endpoint they run

    def __post_init__(self):
        self.frame = struct.Struct("<4s" + "Q" * len(self.layout))
        self.name = self.op.rstrip(b"\x00").decode()  # the ``produce.<OP>`` span

    def pool_name(self, *key) -> str:
        return self.key_for(*key) if key else self.kind


class Command(NamedTuple):
    """One production command, as scheduled, framed and replayed."""

    recipe: Recipe
    key: tuple = ()  # target pool key: (m, k, n) or ()
    n: int = 0  # items to produce
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
def _by_role(svc, fwd, rev) -> list:
    """The two directions' ``CotPool``, this party's sender role first."""
    pools = [CotPool.of(fwd), CotPool.of(rev)]
    return pools if sends(svc.party, "fwd") else pools[::-1]


def _bit_triples(svc, ch, pool, cmd, fwd, rev):
    """Both workers hash their halves of the same COT ranges; the
    channel stays silent."""
    send, recv = _by_role(svc, fwd, rev)
    return generate_bit_triples(cmd.n, send, recv, party=svc.party, tweak_base=cmd.offsets[0])


def _matrix_triple(svc, ch, pool, cmd, cots):
    """Forward COTs only: party 0 is the Ferret -- and therefore Gilboa
    -- sender for both cross terms, the role truncation runs too.  A
    fixed direction keeps every matrix triple's COT charge a plan
    constant."""
    return generate_matrix_triples(
        ch, MatmulDims(*cmd.key), pool.bits, CotPool.of(cots), svc._rng,
        party=svc.party, ot_sender=0, tweak_base=cmd.offsets[0],
    )


# -- the table ----------------------------------------------------------------
def _extend(op: bytes, direction: str, label: str) -> Recipe:
    return Recipe(
        op=op, layout="noo", kind=f"cot/{direction}", label=label,
        tag=f"prov/{direction}", direction=direction,
        pool=_cot_pool(direction),
        inputs=lambda bits: (),
        produce=lambda svc, ch, pool, cmd: svc._run_extend(direction, ch),
    )


EXT0 = _extend(b"EXT0", "fwd", "forward-COT")
EXT1 = _extend(b"EXT1", "rev", "reverse-COT")
TRI = Recipe(
    op=b"TRI\x00", layout="noo", kind="tri", label="bit-triple", tag="prov/tri",
    pool=lambda svc, name: TriplePool(name, **_PLAN_DRIVEN),
    inputs=lambda bits: (("cot/fwd", 1), ("cot/rev", 1)),
    cap=lambda t: t.triple_chunk,
    produce=_bit_triples,
)
MTRI = Recipe(
    op=b"MTRI", layout="kkko", kind="mtri", label="matrix-triple", tag="prov/mtri",
    key_for=MatrixTriplePool.key_for,
    pool=lambda svc, name, m, k, n: MatrixTriplePool(
        name, m, k, n, svc.tuning.ring_bits, **_PLAN_DRIVEN
    ),
    inputs=lambda bits, m, k, n: (("cot/fwd", matmul_cots(MatmulDims(m, k, n), bits)),),
    cap=lambda t: 1,
    produce=_matrix_triple,
)
RECIPES = (EXT0, EXT1, TRI, MTRI)
BY_OP = {recipe.op: recipe for recipe in RECIPES}
BY_KIND = {recipe.kind: recipe for recipe in RECIPES}


def expand(requests, bits: int) -> dict:
    """Pool name -> items production adds to serve ``requests``.

    ``requests`` are ``(recipe, pool key, count)`` draws; the walk
    charges each to its pool and, through the recipes' ``inputs``, the
    raw COTs of each direction the derived production behind it
    consumes, in the order the walk first meets each pool.
    """
    out = {}
    work = list(requests)
    for recipe, key, count in work:  # grows while walking: a draw's inputs
        name = recipe.pool_name(*key)
        out[name] = out.get(name, 0) + count
        work.extend((BY_KIND[src], (), count * per) for src, per in recipe.inputs(bits, *key))
    return out
