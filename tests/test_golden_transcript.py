"""Golden wire transcript of one seeded service pair.

A tiny :class:`CorrelationService` pair runs over a recording link:
the cold start (both directions' IKNP mints, over dealt seed COTs so
that no PKC entropy enters), one Ferret extend per direction, one TRI
and one MTRI command, then online one secure MatMul, one ReLU and one
exact Rescale.  Every frame either party puts on the link is kept, and
the SHA-256 of each party's frames on each mux tag is pinned next to
the :data:`repro.fingerprint.PROTOCOL` they were recorded under.

A change to any wire byte fails here.  If it is meant, bump
``fingerprint.VERSION`` (a peer on the old bytes must be refused, not
fed wrong shares), re-pin both the protocol and the digests, and list
the re-pin in CHANGES.md.
"""

import hashlib

import numpy as np
from parties import draws_plan, run_both

from repro.crypto import blocks
from repro.ferret.config import FerretConfig
from repro.fingerprint import PROTOCOL
from repro.mpc.matmul import matmul_draws, matmul_via_service
from repro.mpc.relu import relu_draws, relu_via_service
from repro.mpc.sharing import ArithmeticShares
from repro.mpc.truncation import FixedPointConfig, trunc_draws, trunc_via_service
from repro.ot.base_ot import KAPPA
from repro.ot.channel import LocalChannel
from repro.ot.cot import CotReceiverBatch, CotSenderBatch
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning
from repro.runtime.mux import decode_frame

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")  # 1008 COTs/extend
#: Production is exactly what the plan targets, so the command stream
#: is a pure function of the plan.
TUNING = ServiceTuning(ring_bits=16)
FX = FixedPointConfig(bits=16, frac_bits=4)
SEED = 0x601D
ELEMENTS = 8
SHAPE = (2, 3, 2)
DRAWS = matmul_draws(*SHAPE) + relu_draws(ELEMENTS, FX.bits) + trunc_draws(ELEMENTS, FX)

#: The protocol the digests below were recorded under.
GOLDEN_PROTOCOL = "5:bcda13e6df61b8f9"
#: SHA-256 of the frames (tag header included) party p sent on each tag.
GOLDEN = {
    "p0 pipe/draws": "b9602265615793f9779ac9ad9183a44c6f9435aec821ff357e9c6b789d401090",
    "p0 prov/ctl": "b4bb2aa5958628caa65d7458e58958f0816f0a680a00f559f2dc6e44846e1d4e",
    "p0 prov/fwd": "214e1aaaf02ae7869950e098340f25663459166ca4d819f668033cb7802794c4",
    "p0 prov/mtri": "30c01a8db1235658ec40fbaa7a703b0caa3da36a85e997cad118ba6601908ebc",
    "p0 prov/rev": "f46ee55481e424a7ad34778421a967fb66abbccf094896f2464262dd0984c3e9",
    "p0 sess/golden": "28166e035d5837d59cbb275f98e61bbba8d6355fe272caad401cc2440d0af249",
    "p1 prov/ctl": "6fcb7009dbb8e0528f91a06c9789e132f753e38700662749f5e4f87e2e3e1116",
    "p1 prov/fwd": "98a2988e13b315037145f5917a7e43408178c2aad32ca0b7ab969b41ac23bb87",
    "p1 prov/mtri": "834a1eca7f3d219f8267af3cca564300cd2007c1700d4bc774e163f86e235d2a",
    "p1 prov/rev": "ac1043fc65ef91c3c5a445f9eca0d1a4bf084db04b8b24a02d55942f28872bd4",
    "p1 sess/golden": "6d9bbd776f0d8f416979b42b16583618493ce7e53870b422a2105fe91fe35581",
}


def deal_seed_cots(services, seed):
    """Hand the forward mint ``KAPPA`` dealt seed COTs in place of its
    PKC seed OTs.  Party 1 (the forward IKNP receiver) offers the seed
    pairs, so it holds the COT-sender side; the reverse mint already
    seeds itself from the forward mint's spare COTs."""
    gen = np.random.default_rng(seed)
    delta = blocks.random_blocks(1, gen)
    r = blocks.random_blocks(KAPPA, gen)
    bits = gen.integers(0, 2, KAPPA).astype(np.uint8)
    dealt = (
        CotReceiverBatch(bits, blocks.xor(r, blocks.mul_bit(delta, bits))),
        CotSenderBatch(delta, r),
    )
    for svc, seed_cots in zip(services, dealt):
        mint = svc.ferret_fwd.mint_base_cots
        svc.ferret_fwd.mint_base_cots = (
            lambda channel, n, mint=mint, seed_cots=seed_cots: mint(channel, n, seed_cots)
        )


def run_recorded():
    """Run the scenario; returns ``(frames, outputs, services, values)``:
    each party's sent link frames in order, its online outputs, the
    stopped services and the plaintext inputs."""
    frames = ([], [])
    links = LocalChannel.pair(timeout=60.0)
    for link, sent in zip(links, frames):
        send = link.send_bytes

        def recording_send(data, send=send, sent=sent):
            sent.append(bytes(data))
            send(data)

        link.send_bytes = recording_send
    muxes = [MuxChannel(link, timeout=60.0) for link in links]
    services = [
        CorrelationService(party, mux, CFG, TUNING, seed=SEED) for party, mux in enumerate(muxes)
    ]
    deal_seed_cots(services, SEED + 1)

    gen = np.random.default_rng(SEED + 2)
    mask = FX.mask
    m, k, n = SHAPE
    values = {
        "x": gen.integers(0, 1 << 16, (m, k), dtype=np.uint64),
        "y": gen.integers(0, 1 << 16, (k, n), dtype=np.uint64),
        "relu": gen.integers(0, 1 << 16, ELEMENTS, dtype=np.uint64),
        "trunc": gen.integers(0, 1 << 16, ELEMENTS, dtype=np.uint64),
    }
    share0 = {key: gen.integers(0, 1 << 16, v.shape, dtype=np.uint64) for key, v in values.items()}
    shares = (share0, {key: (v - share0[key]) & mask for key, v in values.items()})

    def party(p):
        svc, mine = services[p], shares[p]
        draws_plan(DRAWS, FX.bits).prefill(svc, 60.0)
        session = svc.session("golden")
        rng = np.random.default_rng(SEED + 3 + p)
        product = matmul_via_service(session, mine["x"], mine["y"])
        relu, _ = relu_via_service(session, ArithmeticShares(mine["relu"], FX.bits), rng)
        trunc = trunc_via_service(session, mine["trunc"], FX, rng)
        return product, relu.values.astype(np.uint64), trunc

    for svc in services:
        svc.start()
    try:
        outputs = run_both(lambda: party(0), lambda: party(1), timeout=120.0)
    finally:
        for svc in services:
            svc.stop()
        for mux in muxes:
            mux.close()
    return frames, outputs, services, values


def tag_digests(frames) -> dict:
    """``"p<party> <tag>"`` -> SHA-256 of that party's frames on the tag."""
    digests = {}
    for party, sent in enumerate(frames):
        for frame in sent:
            tag, _ = decode_frame(frame)
            digests.setdefault(f"p{party} {tag}", hashlib.sha256()).update(frame)
    return {key: sha.hexdigest() for key, sha in sorted(digests.items())}


def test_service_pair_transcript_matches_golden_digests():
    frames, outputs, services, values = run_recorded()
    for svc in services:
        assert svc.error is None
        assert svc.extends == {"fwd": 1, "rev": 1}

    # The run computed the right thing, so the pinned bytes are a
    # working protocol's bytes.
    mask = FX.mask
    (prod0, relu0, trunc0), (prod1, relu1, trunc1) = outputs
    assert np.array_equal((prod0 + prod1) & mask, (values["x"] @ values["y"]) & mask)
    signed = FX.to_signed(values["relu"])
    assert np.array_equal((relu0 + relu1) & mask, np.where(signed >= 0, values["relu"], 0))
    assert np.array_equal((trunc0 + trunc1) & mask, FX.trunc_reference(values["trunc"]))

    assert PROTOCOL == GOLDEN_PROTOCOL, (
        f"fingerprint.PROTOCOL is {PROTOCOL}: re-pin GOLDEN under the new protocol"
    )
    assert tag_digests(frames) == GOLDEN, (
        "wire bytes changed under the same fingerprint.PROTOCOL: "
        "bump fingerprint.VERSION and re-pin GOLDEN"
    )
