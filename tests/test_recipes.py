"""The recipe table and the generic service code that reads it: the
leader's command stream is pinned byte for byte against the hand-written
per-kind scheduler it replaced, and every table-derived view (frame
codec, stale-command alignment, ledger span names, planner demand) is
checked against the table itself."""

import hashlib
import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from repro.crypto import blocks
from repro.ferret.config import FerretConfig
from repro.mpc.truncation import FixedPointConfig
from repro.ot.channel import LocalChannel
from repro.ppml.layers import Activation, Conv2d, Graph, Linear, MaxPool2d, Rescale
from repro.ppml.plan import _layer_internal_cots, _layer_produce_counts, plan_graph
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.runtime.recipes import RECIPES, Command

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")  # 1008 COTs/extend
MTRI_KEY, TPRC_KEY = (2, 3, 2), (8,)  # 384 COTs/triple; 42 COTs + 80 bit triples/pair


def service_pair(tuning):
    a, b = LocalChannel.pair(timeout=60.0)
    muxes = MuxChannel(a, timeout=60.0), MuxChannel(b, timeout=60.0)
    services = [
        CorrelationService(party, mux, CFG, tuning, seed=0x901D)
        for party, mux in enumerate(muxes)
    ]
    for svc in services:
        svc.matrix_pool(*MTRI_KEY)
        svc.trunc_pool(*TPRC_KEY)
    return services, muxes


# -- golden prov/ctl transcript ------------------------------------------------
#: Recorded at commit 29417b5 (the per-kind ``_decide`` chain).  With
#: every pool pre-created, absolute produce targets set before start and
#: no consumer, the leader's schedule is a pure function of pool state.
#: ``watermarks`` extends on the COT low watermark and fuses TPRC chunks;
#: ``starved`` has no COT watermark, so every extend is a derived kind
#: starving: it starts from the fwd/rev tie, and its one-pair TPRC
#: commands reach "30 forward COTs short of a pair AND bit triples short"
#: with stock for a triple batch left -- raw COTs go first.
GOLDEN = {
    "watermarks": (
        dict(triple_chunk=96, tprc_chunk=4, tprc_batch_chunks=2),
        10,
        "f2e214e30caf30641040376b82b1dedac5b0ed33b3ba6683f2a3a6cefae96c46",
    ),
    "starved": (
        dict(cot_low=0, cot_high=0, triple_chunk=80, tprc_chunk=1, tprc_batch_chunks=1),
        30,
        "2a0d95f5672050c3bbf3793126cea4839998945a2fb50b1f8a5b020d77872f7f",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_command_stream_matches_golden_transcript(case):
    knobs, trunc_pairs, digest = GOLDEN[case]
    tuning = ServiceTuning(
        ring_bits=32, triple_low=0, triple_high=0, rtri_chunk=8,
        rot_low=0, rot_high=64, **knobs,
    )
    (leader, follower), muxes = service_pair(tuning)
    frames = []
    send = leader._ctl.send_bytes

    def recording_send(data):
        frames.append(bytes(data))
        send(data)

    leader._ctl.send_bytes = recording_send
    leader.raise_produce_targets({
        "tri": 200, "rtri": 40, "mtri/2x3x2": 3, "tprc/8": trunc_pairs,
        "rot/fwd": 700, "rot/rev": 300,
    })
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
    sha = hashlib.sha256()
    for frame in frames:
        sha.update(struct.pack("<I", len(frame)))
        sha.update(frame)
    ops = " ".join(frame[:4].rstrip(b"\x00").decode() for frame in frames)
    assert sha.hexdigest() == digest, f"{len(frames)} frames: {ops}"
    assert follower.pools["tprc/8"].produced == trunc_pairs


# -- the scheduler's two tie rules, state by state -------------------------------
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
        # Of two short COT directions the lower level extends first...
        ({"cot/fwd": 10, "cot/rev": 20}, "rtri", (b"EXT0", 0, 0, 0)),
        ({"cot/fwd": 20, "cot/rev": 10}, "rtri", (b"EXT1", 0, 0, 0)),
        # ...ties go to forward, and a stocked direction is left alone.
        ({"cot/fwd": 10, "cot/rev": 10}, "rtri", (b"EXT0", 0, 0, 0)),
        ({"cot/fwd": 40, "cot/rev": 10}, "rtri", (b"EXT1", 0, 0, 0)),
        # Raw COTs short AND bit triples short: the extend goes first,
        # though a 30-triple batch could run.
        ({"cot/fwd": 30, "cot/rev": 50, "tri": 10}, "tprc/8", (b"EXT0", 0, 0, 0)),
        # Only bit triples short: one TRI batch for the missing 70, cut
        # to the 50 COTs per direction in stock.
        ({"cot/fwd": 50, "cot/rev": 50, "tri": 10}, "tprc/8", (b"TRI\x00", 50, 0, 0)),
    ],
)
def test_starved_kind_schedules_its_short_input(levels, wanted, frame):
    tuning = ServiceTuning(
        cot_low=0, cot_high=0, triple_low=0, triple_high=0, enable_rots=False
    )
    (leader, _), muxes = service_pair(tuning)
    for kind, n in levels.items():
        stock(leader.pools[kind], n)
    leader.pools[wanted].raise_produce_target(1)
    assert leader._encode(leader._decide()) == struct.pack("<4sQQQ", *frame)
    for mux in muxes:
        mux.close()


# -- table-derived views ----------------------------------------------------------
@pytest.mark.parametrize("recipe", RECIPES, ids=lambda recipe: recipe.name)
def test_stale_command_takes_inputs_times_n_at_frame_offsets(recipe):
    """A degraded follower consumes exactly what the leader's command
    reserved: per input, ``n x per-item`` items at the frame's offset."""
    key = {"mtri": MTRI_KEY, "tprc": TPRC_KEY}.get(recipe.kind, ())
    n = 3 if "n" in recipe.layout else 1
    inputs = recipe.inputs(32, *key)
    for variant in range(len(inputs) if recipe.choose else 1):
        (_, follower), muxes = service_pair(ServiceTuning(ring_bits=32))
        used = inputs[variant:variant + 1] if recipe.choose else inputs
        offsets = tuple(5 + 2 * i for i in range(len(used)))
        taken = []
        for (src, per), lo in zip(used, offsets):
            pool = follower.pools[src]
            stock(pool, lo + n * per)
            real = pool.take_columns
            pool.take_columns = (
                lambda lo, count, timeout=None, src=src, real=real:
                taken.append((src, lo, count)) or real(lo, count, timeout)
            )
        cmd = Command(recipe, key, n if inputs else 0, variant, offsets)
        follower._align_stale_command(follower._decode(follower._encode(cmd)))
        assert taken == [(src, lo, n * per) for (src, per), lo in zip(used, offsets)]
        if recipe.tag is None:  # a local conversion runs to completion
            assert follower.pools[recipe.kind].produced == n
        for mux in muxes:
            mux.close()


def test_every_ledger_produce_row_names_a_recipe():
    """``produce.<OP>`` span names come from the table; the ledger's
    per-layer rows must be able to find theirs."""
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    ops = {
        row["name"].split(".")[1]
        for row in bench["per_layer"]
        if row["name"].startswith("produce.")
    }
    assert ops and ops <= {recipe.name for recipe in RECIPES}


FX = FixedPointConfig(bits=16, frac_bits=4, mag_bits=9)


def quantized_mlp():
    layers = (Linear(6), Rescale(), Activation("relu"), Linear(5), Rescale(), Linear(3))
    return Graph("QuantMLP3", (4, 12)), layers


def conv_block():
    layers = (Conv2d(8, 3, padding=1, groups=2), Rescale(), Activation("relu"), MaxPool2d(2))
    return Graph("ConvBlock", (4, 8, 8)), layers


def both(n):
    return {"cot/fwd": n, "cot/rev": n}


#: ``_layer_internal_cots`` / ``_layer_produce_counts`` per layer, as the
#: hand-kept formulas of commit 29417b5 returned them.
PLAN_GOLDEN = [
    (
        quantized_mlp, "pair",
        [both(1920), {"cot/fwd": 1488, "cot/rev": 960}, both(720), both(864),
         {"cot/fwd": 1240, "cot/rev": 800}, both(560)],
        [{"mtri/4x12x6": 1}, {"tprc/4": 24, "tri": 960},
         {"cot/fwd": 384, "cot/rev": 24, "tri": 720}, {"mtri/4x6x5": 1},
         {"tprc/4": 20, "tri": 800}, {"mtri/4x5x3": 1}],
        9680,
    ),
    (
        quantized_mlp, "exact",
        [both(1920), both(1728), both(720), both(864), both(1440), both(560)],
        [{"mtri/4x12x6": 1}, {"cot/fwd": 480, "tri": 960, "rtri": 48},
         {"cot/fwd": 384, "cot/rev": 24, "tri": 720}, {"mtri/4x6x5": 1},
         {"cot/fwd": 400, "tri": 800, "rtri": 40}, {"mtri/4x5x3": 1}],
        12408,
    ),
    (
        conv_block, "pair",
        [both(39168), {"cot/fwd": 31744, "cot/rev": 20480}, both(15360), both(11520)],
        [{"mtri/64x18x4": 2}, {"tprc/4": 512, "tri": 20480},
         {"cot/fwd": 8192, "cot/rev": 512, "tri": 15360},
         {"cot/fwd": 6144, "cot/rev": 384, "tri": 11520}],
        160384,
    ),
]


@pytest.mark.parametrize(
    "model, mode, internal, produce, total", PLAN_GOLDEN,
    ids=["mlp-pair", "mlp-exact", "conv-pair"],
)
def test_planner_counts_from_recipes_match_recorded(model, mode, internal, produce, total):
    graph, layers = model()
    for layer in layers:
        graph.add(layer)
    plan = plan_graph(graph, bits=16, fx=FX, trunc_mode=mode)
    demands = [demand for _, demand in plan.per_layer]
    assert [_layer_internal_cots(d, 16) for d in demands] == internal
    assert [_layer_produce_counts(d, 16) for d in demands] == produce
    assert plan.demand.total_cots(16) == total
