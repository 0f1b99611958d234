"""The recipe table and the generic service code that reads it: the
leader's command stream is pinned byte for byte against the hand-written
per-kind scheduler it replaced, and every table-derived view (frame
codec, stale-command alignment, ledger span names, planner demand) is
checked against the table itself."""

import hashlib
import json
import struct
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.crypto import blocks
from repro.ferret.config import FerretConfig
from repro.fingerprint import PROTOCOL
from repro.mpc.matmul import matmul_draws
from repro.mpc.maxpool import max_draws
from repro.mpc.relu import relu_draws
from repro.mpc.truncation import FixedPointConfig, trunc_draws
from repro.ot.channel import LocalChannel, decode_msg, encode_msg
from repro.ppml.layers import Activation, Conv2d, Graph, Linear, MaxPool2d, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.runtime.recipes import BY_KIND, RECIPES, Command, expand
from repro.runtime.service import CONTROL

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")  # 1008 COTs/extend
MTRI_KEY = (2, 3, 2)  # 384 COTs/triple


def service_pair(tuning):
    a, b = LocalChannel.pair(timeout=60.0)
    muxes = MuxChannel(a, timeout=60.0), MuxChannel(b, timeout=60.0)
    services = [
        CorrelationService(party, mux, CFG, tuning, seed=0x901D)
        for party, mux in enumerate(muxes)
    ]
    for svc in services:
        svc.pool("mtri", MTRI_KEY)
    return services, muxes


# -- golden prov/ctl transcript ------------------------------------------------
#: Recorded at commit 29417b5 (the per-kind ``_decide`` chain).  With
#: every pool pre-created, absolute produce targets set before start and
#: no consumer, the leader's schedule is a pure function of pool state.
#: ``starved`` has no COT watermark, so every extend is a derived kind
#: starving: it starts from the fwd/rev tie, and its one-pair TPRC
#: commands reach "30 forward COTs short of a pair AND bit triples short"
#: with stock for a triple batch left -- raw COTs go first.
#: Re-recorded when a truncation pair's bit triples went from 80 to
#: 68 (the log-depth comparison: ``2(l-1) - popcount(l-1)`` per
#: element, 57 at l = 32 plus 11 at l = 8): TPRC frames carry the
#: pair batch's ``tri`` pool offset, so both streams moved with it.
#: Re-recorded again when exact online truncation moved its B2A from
#: ring triples to the pairs' Gilboa B2A: the RTRI recipe is gone, so
#: ``rtri`` left the produce targets (and ``rtri_chunk=`` the tuning),
#: and the 40 ring triples' RTRI commands and the extends that fed
#: them (32 COTs per direction each) left both streams.
#: Re-pinned once more when ROT production went: ``rot/*`` left the
#: produce targets and the split TPRC cap became one ``tprc_chunk``
#: (4 x 2 = 8, 1 x 1 = 1).  Both digests are the ROT-free stream of the
#: parent tree (the same scenarios with ROT production switched off):
#: without ROT commands, nothing else in either stream moved.
#: Re-pinned when matrix triples stopped choosing their COT direction
#: by stock: MTRI frames lost their ``v`` (variant) slot and always
#: draw ``cot/fwd``.  Both digests equal the parent tree's streams with
#: the MTRI choice forced to forward (``MTRI.choose = lambda pools: 0``)
#: and the then always-zero ``v`` slot cut out of each MTRI frame:
#: same 22 / 75 frames, same op sequence, same counts and offsets.
#: Re-pinned when truncation pairs went: the TPRC recipe and
#: ``tprc_chunk`` are gone, so ``tprc/8`` left the produce targets and
#: no command feeds a derived kind from another derived kind.  Both
#: digests are the parent tree's streams of these scenarios with only
#: the ``tprc/8`` target removed, reproduced byte for byte: 10 frames
#: each, ``EXT0 EXT1 TRI TRI TRI MTRI MTRI EXT0 MTRI STOP``.
#: Re-pinned when commands became JSON control messages
#: (``{"op": name, "key": [...], "n": n, "offsets": [...]}``, STOP as
#: ``{"op": "STOP"}``).  Both digests are the parent tree's 10-frame
#: streams with each struct frame translated field by field: extends
#: carry ``n`` 0 and no offsets (the struct frame sent two zeros), TRI
#: its count and two offsets, MTRI its key, ``n`` 1 (the struct frame
#: left it implicit) and one offset.  Nothing else moved.
#: Since the protocol fingerprint, the leader's first frames are its
#: ``hello`` and its ``config``; they are checked on their own and the
#: digests still cover the command stream after them, unchanged.
#: The ``watermarks`` scenario (a standing raw-COT refill) went with the
#: refill itself; ``starved``, recorded with that refill switched off,
#: is what every tuning schedules now, and its digest did not move.
GOLDEN = {
    "starved": (
        dict(triple_chunk=80),
        "0269e1562a0261ccb0dc2885c06ace6023472e84e3013f25a55de7be0455ba84",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_command_stream_matches_golden_transcript(case):
    knobs, digest = GOLDEN[case]
    tuning = ServiceTuning(ring_bits=32, **knobs)
    (leader, follower), muxes = service_pair(tuning)
    frames = []
    send = leader._ctl.send_bytes

    def recording_send(data):
        frames.append(bytes(data))
        send(data)

    leader._ctl.send_bytes = recording_send
    leader.raise_produce_targets({"tri": 200, "mtri/2x3x2": 3})
    try:
        for svc in (leader, follower):
            svc.start()
        for svc in (leader, follower):
            svc.wait_ready()
        # A command is in flight only while some pool still wants a
        # refill, so "no pool asks" means the stream has ended.
        deadline = time.monotonic() + 120.0
        while any(pool.needs_refill() for pool in leader.pools.values()):
            assert time.monotonic() < deadline, "production did not quiesce"
            time.sleep(0.02)
    finally:
        leader.stop()
        follower.stop()
        for mux in muxes:
            mux.close()
    assert decode_msg(frames.pop(0), CONTROL) == {"op": "hello", "protocol": PROTOCOL}
    assert decode_msg(frames.pop(0), CONTROL) == {"op": "config", **leader.hello_config()}
    sha = hashlib.sha256()
    for frame in frames:
        sha.update(struct.pack("<I", len(frame)))
        sha.update(frame)
    ops = " ".join(json.loads(frame)["op"] for frame in frames)
    assert sha.hexdigest() == digest, f"{len(frames)} frames: {ops}"
    assert follower.pools["mtri/2x3x2"].produced == 3


# -- the scheduler's tie rule, state by state -------------------------------------
def stock(pool, n):
    """Append ``n`` zero items in the pool's own column layout."""
    if pool.name.startswith("cot/"):
        columns = (np.zeros(n, np.uint8), blocks.zeros(n))[-len(pool._columns):]
    else:
        columns = tuple(np.zeros(n, np.uint8) for _ in pool._columns)
    pool.append_columns(columns)


@pytest.mark.parametrize(
    "levels, wanted, frame",
    [
        # Bit triples take one COT from each direction: of two short
        # directions forward extends first, a stocked one is left alone...
        ({"cot/fwd": 0, "cot/rev": 0}, "tri", ("EXT0", 0, [])),
        ({"cot/fwd": 0, "cot/rev": 5}, "tri", ("EXT0", 0, [])),
        ({"cot/fwd": 5, "cot/rev": 0}, "tri", ("EXT1", 0, [])),
        # ...and with both stocked the batch itself runs, cut to stock.
        ({"cot/fwd": 1, "cot/rev": 40}, "tri", ("TRI", 1, [0, 0])),
        # A matrix triple short of its 384 forward COTs extends forward,
        # whatever the reverse stock.
        ({"cot/fwd": 100, "cot/rev": 0}, "mtri/2x3x2", ("EXT0", 0, [])),
    ],
)
def test_starved_kind_schedules_its_short_input(levels, wanted, frame):
    (leader, _), muxes = service_pair(ServiceTuning())
    leader.pool("tri")
    for kind, n in levels.items():
        stock(leader.pools[kind], n)
    leader.pools[wanted].raise_produce_target(1)
    op, n, offsets = frame
    assert leader._encode(leader._decide()) == encode_msg(op, key=[], n=n, offsets=offsets)
    for mux in muxes:
        mux.close()


# -- table-derived views ----------------------------------------------------------
def test_every_recipe_kind_has_a_consumer():
    """A pool exists because something draws it: every kind of the
    table is another recipe's input or drawn by an online verb."""
    keys = {"mtri": MTRI_KEY}
    inputs = {
        src for recipe in RECIPES
        for src, _ in recipe.inputs(32, *keys.get(recipe.kind, ()))
    }
    draws = [
        *trunc_draws(3, FX), *relu_draws(3, 16), *matmul_draws(2, 3, 2),
        *max_draws(3, 16),
    ]
    assert set(BY_KIND) - inputs - {kind for kind, _, _ in draws} == set()


def test_derived_inputs_are_raw_cot_pools():
    """The scheduler feeds a starved derived kind with one extend, never
    with other derived production: every input is an extend's pool."""
    keys = {"mtri": MTRI_KEY}
    for recipe in RECIPES:
        for src, _ in recipe.inputs(32, *keys.get(recipe.kind, ())):
            assert BY_KIND[src].direction is not None, (recipe.name, src)


@pytest.mark.parametrize("recipe", RECIPES, ids=lambda recipe: recipe.name)
def test_stale_command_takes_inputs_times_n_at_frame_offsets(recipe):
    """A degraded follower consumes exactly what the leader's command
    reserved: per input, ``n x per-item`` items at the message's offset."""
    key = {"mtri": MTRI_KEY}.get(recipe.kind, ())
    n = 3
    inputs = recipe.inputs(32, *key)
    (_, follower), muxes = service_pair(ServiceTuning(ring_bits=32))
    offsets = tuple(5 + 2 * i for i in range(len(inputs)))
    taken = []
    for (src, per), lo in zip(inputs, offsets):
        pool = follower.pool(src)
        stock(pool, lo + n * per)
        real = pool.take_columns
        pool.take_columns = (
            lambda lo, count, timeout=None, src=src, real=real:
            taken.append((src, lo, count)) or real(lo, count, timeout)
        )
    cmd = Command(recipe, key, n if inputs else 0, offsets)
    follower._align_stale_command(follower._decode(decode_msg(follower._encode(cmd), CONTROL)))
    assert taken == [(src, lo, n * per) for (src, per), lo in zip(inputs, offsets)]
    for mux in muxes:
        mux.close()


#: Ops the ledger still has rows for but the table no longer runs: the
#: rows read 0.  RTRI (ring triples) went with the Beaver B2A, TPRC
#: (truncation pairs) with pair-mode truncation; their rows leave with
#: the next change to the benchmark, and this set with them.
RETIRED_OPS = {"RTRI", "TPRC"}


def test_every_ledger_produce_row_names_a_recipe():
    """``produce.<OP>`` span names come from the table; the ledger's
    per-layer rows must be able to find theirs."""
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    ops = {
        row["name"].split(".")[1]
        for row in bench["per_layer"]
        if row["name"].startswith("produce.")
    }
    names = {recipe.name for recipe in RECIPES}
    assert not RETIRED_OPS & names
    assert ops and ops - names == RETIRED_OPS


FX = FixedPointConfig(bits=16, frac_bits=4, mag_bits=9)


def quantized_mlp():
    layers = (Linear(6), Rescale(), Activation("relu"), Linear(5), Rescale(), Linear(3))
    return Graph("QuantMLP3", (4, 12)), layers


def conv_block():
    layers = (Conv2d(8, 3, padding=1, groups=2), Rescale(), Activation("relu"), MaxPool2d(2))
    return Graph("ConvBlock", (4, 8, 8)), layers


def both(n):
    return {"cot/fwd": n, "cot/rev": n}


#: The raw COTs a layer's derived production reserves (``internal``)
#: and the pool production its draws need (``produce``), as the
#: hand-kept formulas of commit 29417b5 returned them, re-priced for
#: the 4-bit digit leaves of the comparison: 4 COTs per digit (16 for a
#: 15-bit ReLU / MaxPool comparison, was 15) and ``2(q-1) -
#: popcount(q-1)`` bit triples over q digits (4 for the 15-bit
#: comparison, was 25; 4 + 0 for a 16-bit Rescale's wrap and 4-bit
#: borrow comparisons, was 26 + 4).  A bit triple costs one COT each
#: way.  A Rescale of n elements draws ``n (16 + 4 + 2)`` forward COTs
#: (the two comparisons and a 2-bit Gilboa B2A) and 4 n bit triples.
#: A matrix triple's ``matmul_cots`` are charged to ``cot/fwd`` only
#: (it always draws forward COTs; the planner used to charge both
#: directions because stock picked one at runtime).  The totals do not
#: move: they already charged the first, forward, direction.
#: :func:`expand` is one walk returning both parts summed.
PLAN_GOLDEN = [
    (
        quantized_mlp,
        [{"cot/fwd": 1920}, both(96), both(96), {"cot/fwd": 864}, both(80),
         {"cot/fwd": 560}],
        [{"mtri/4x12x6": 1}, {"cot/fwd": 528, "tri": 96},
         {"cot/fwd": 408, "cot/rev": 24, "tri": 96}, {"mtri/4x6x5": 1},
         {"cot/fwd": 440, "tri": 80}, {"mtri/4x5x3": 1}],
        5288,
    ),
    (
        conv_block,
        [{"cot/fwd": 39168}, both(2048), both(2048), both(1536)],
        [{"mtri/64x18x4": 2}, {"cot/fwd": 11264, "tri": 2048},
         {"cot/fwd": 8704, "cot/rev": 512, "tri": 2048},
         {"cot/fwd": 6528, "cot/rev": 384, "tri": 1536}],
        77824,
    ),
]


@pytest.mark.parametrize(
    "model, internal, produce, total", PLAN_GOLDEN, ids=["mlp-exact", "conv-exact"],
)
def test_planner_counts_from_recipes_match_recorded(model, internal, produce, total):
    graph, layers = model()
    for layer in layers:
        graph.add(layer)
    plan = plan_graph(graph, bits=16, fx=FX)
    demands = [demand for _, demand in plan.per_layer]
    assert [Counter(expand(d.drawn(), 16)) for d in demands] == [
        Counter(i) + Counter(p) for i, p in zip(internal, produce)
    ]
    assert plan.demand.total_cots(16) == total
