"""The cold start: kappa = 128 PKC OTs + IKNP-style COT extension.

Properties of ``base_cot_send`` / ``base_cot_receive`` for any n, of
the two kernels they add (``stream_expand``,
``transpose_128``), and the counting tests that pin what the change is
for: one Ferret setup is exactly 128 public-key OTs, and a
two-direction service pair is ONE 128-OT batch per side (the reverse
direction's seed OTs ride on 128 spare forward COTs).
"""

import contextlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from parties import ScriptedChannel, frame
from strategies import WireStrategies

import repro.ferret.protocol as protocol
from repro.crypto import blocks, kernels
from repro.crypto.chacha import keystream
from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.prg import stream_expand
from repro.errors import ParameterError, ProtocolError
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.ot import base_ot
from repro.ot.base_ot import KAPPA, base_cot_receive, base_cot_send
from repro.ot.channel import LocalChannel, PartyError, lanes_bytes, run_concurrently, run_pair
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot
from repro.ot.ot_from_cot import ot_reply_bytes
from repro.runtime import CorrelationService, MuxChannel, ServiceTuning

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")


def naive_transpose(rows: np.ndarray, n: int) -> np.ndarray:
    """One byte per bit, ``bits.T``, pack again."""
    bits = np.unpackbits(rows, axis=1, bitorder="little")[:, :n]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def base_cot_pair(n, seed):
    """(delta, choices, r, y) of one extension run from ``seed`` alone."""
    s_rng = np.random.default_rng(seed)
    r_rng = np.random.default_rng(seed + 1)
    delta = blocks.random_blocks(1, s_rng)
    choices = r_rng.integers(0, 2, n).astype(np.uint8)
    r, y, _, _ = run_pair(
        lambda ch: base_cot_send(ch, n, delta),
        lambda ch: base_cot_receive(ch, choices, r_rng),
    )
    return delta, choices, r, y


def seed_cot_pair(seed=9):
    """KAPPA dealt COTs (sender batch, receiver batch) under a fresh Delta."""
    rng = np.random.default_rng(seed)
    delta, z = blocks.random_blocks(1, rng), blocks.random_blocks(KAPPA, rng)
    x = rng.integers(0, 2, KAPPA).astype(np.uint8)
    return CotSenderBatch(delta, z), CotReceiverBatch(x, blocks.xor(z, blocks.mul_bit(delta, x)))


class TestTransposeKernel:
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=8, seed=0)
    @example(n=KAPPA + 1, seed=0)
    def test_packed_transpose_equals_naive_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 256, (KAPPA, (n + 7) // 8), dtype=np.uint8)
        got = kernels.transpose_128(rows, n)
        assert got.shape == (n, 2) and got.dtype == blocks.BLOCK_DTYPE
        assert np.array_equal(got, naive_transpose(rows, n))

    def test_bit_i_of_block_j_is_bit_j_of_row_i(self):
        rows = np.zeros((KAPPA, 2), dtype=np.uint8)
        rows[77, 1] = 1 << 3  # row 77, column 11
        out = kernels.transpose_128(rows, 16)
        assert blocks.to_int(out[11]) == 1 << 77
        assert not out[np.arange(16) != 11].any()

    @pytest.mark.parametrize("shape", [(127, 4), (128, 3), (128, 5)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ParameterError):
            kernels.transpose_128(np.zeros(shape, dtype=np.uint8), 32)


class TestStreamExpand:
    def test_rows_are_chacha8_keystreams_of_their_seed(self, rng):
        seeds = blocks.random_blocks(5, rng)
        out = stream_expand(seeds, 150)
        assert out.shape == (5, 150) and out.dtype == np.uint8
        for seed, row in zip(seeds, out):
            key = blocks.to_bytes(seed[None, :]) * 2
            assert row.tobytes() == keystream(key, b"cot-ext-strm", 150, rounds=8)

    def test_prefix_stable_across_lengths(self, rng):
        seeds = blocks.random_blocks(3, rng)
        assert np.array_equal(stream_expand(seeds, 200)[:, :70], stream_expand(seeds, 70))


class TestExtension:
    @settings(max_examples=10)
    @given(n=st.integers(1, 4096), seed=st.integers(0, 2**20))
    @example(n=1, seed=1)
    @example(n=KAPPA, seed=1)
    @example(n=KAPPA + 1, seed=1)
    @example(n=1001, seed=1)  # not a multiple of 8
    @example(n=4096, seed=1)
    def test_correlation_holds(self, n, seed):
        delta, choices, r, y = base_cot_pair(n, seed)
        assert r.shape == y.shape == (n, 2)
        assert verify_cot(CotSenderBatch(delta, r), CotReceiverBatch(choices, y))

    def test_same_seeds_give_byte_identical_outputs(self):
        first = base_cot_pair(777, seed=5)
        second = base_cot_pair(777, seed=5)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
        other = base_cot_pair(777, seed=6)
        assert first[3].tobytes() != other[3].tobytes()

    def test_sender_rng_untouched_beyond_kappa(self):
        """r is fixed by the receiver's seeds and Delta: a Ferret
        sender's mint must not advance its generator, or every later
        draw (SPCOT's, the next extend's) would shift."""
        sender = FerretSender(CFG, seed=3)
        before = sender.rng.bit_generator.state
        run_pair(
            lambda ch: sender.mint_base_cots(ch, 300),
            lambda ch: FerretReceiver(CFG, seed=4).mint_base_cots(ch, 300),
        )
        assert sender.rng.bit_generator.state == before

    def both_directions(self, chan_a, chan_b, n):
        """Party a sends then receives; party b mirrors -- on ONE channel."""
        out = {}

        def party(name, channel, seed, first_sender):
            rng = np.random.default_rng(seed)
            delta = blocks.random_blocks(1, rng)
            choices = rng.integers(0, 2, n).astype(np.uint8)
            for sending in (first_sender, not first_sender):
                if sending:
                    out[name, "send"] = CotSenderBatch(
                        delta, base_cot_send(channel, n, delta)
                    )
                else:
                    out[name, "recv"] = CotReceiverBatch(
                        choices, base_cot_receive(channel, choices, rng)
                    )

        run_concurrently(
            lambda: party("a", chan_a, 10, True),
            lambda: party("b", chan_b, 20, False),
            timeout=60.0,
        )
        assert verify_cot(out["a", "send"], out["b", "recv"])  # fwd
        assert verify_cot(out["b", "send"], out["a", "recv"])  # rev

    def test_fwd_then_rev_on_one_channel(self):
        chan_a, chan_b = LocalChannel.pair(timeout=30.0)
        self.both_directions(chan_a, chan_b, 500)

    def test_fwd_then_rev_over_a_mux_subchannel(self):
        base_a, base_b = LocalChannel.pair(timeout=30.0)
        mux_a, mux_b = MuxChannel(base_a, timeout=30.0), MuxChannel(base_b, timeout=30.0)
        try:
            self.both_directions(mux_a.sub("cold/hs"), mux_b.sub("cold/hs"), 500)
        finally:
            mux_a.close(), mux_b.close()


class TestBootstrappedSeeds:
    """``seed_cots``: the seed OTs run over KAPPA COTs of another
    extension, with no public-key operation."""

    @pytest.mark.parametrize("n", [1, KAPPA, KAPPA + 1, 1001])
    def test_correlation_holds_without_pkc(self, n, pkc_counts):
        s_rng, r_rng = np.random.default_rng(n), np.random.default_rng(n + 1)
        delta = blocks.random_blocks(1, s_rng)
        choices = r_rng.integers(0, 2, n).astype(np.uint8)
        # The seed offerer (this extension's COT receiver) holds the
        # sender side of the bootstrap COTs; the Delta-holder chooses.
        offerer, chooser = seed_cot_pair()
        r, y, _, _ = run_pair(
            lambda ch: base_cot_send(ch, n, delta, chooser),
            lambda ch: base_cot_receive(ch, choices, r_rng, offerer),
        )
        assert verify_cot(CotSenderBatch(delta, r), CotReceiverBatch(choices, y))
        assert pkc_counts == {"send": [], "receive": []}

    def test_wrong_number_of_seed_cots_is_refused(self):
        offerer, _ = seed_cot_pair()
        short, _ = offerer.split(KAPPA - 1)
        with pytest.raises(ParameterError, match="seed OTs need 128 COTs, got 127"):
            base_cot_receive(
                ScriptedChannel([]), np.zeros(300, np.uint8), np.random.default_rng(0), short
            )


class TestHostileColdStart:
    """Every frame of a bootstrapped cold start is peer-controlled: a
    truncated, extended or miscounted one is a ProtocolError at once --
    never a hang (the script has no frame past the bad one), a numpy
    error or an allocation sized by the peer's count."""

    N = 300

    def delta_holder(self, inbound):
        rng = np.random.default_rng(0)
        _, chooser = seed_cot_pair()
        return base_cot_send(
            ScriptedChannel(inbound), self.N, blocks.random_blocks(1, rng), chooser
        )

    def test_honest_script_is_accepted(self):
        inbound = [bytes(16 * KAPPA)] * 2 + [self.N.to_bytes(8, "little"), bytes(KAPPA * 38)]
        assert self.delta_holder(inbound).shape == (self.N, 2)

    @settings(max_examples=60, deadline=None)
    @given(inbound=WireStrategies.cold_start_inbound(N))
    def test_delta_holder_refuses_a_bad_frame(self, inbound):
        with pytest.raises(ProtocolError):
            self.delta_holder(inbound)

    @settings(max_examples=25, deadline=None)
    @given(bad=WireStrategies.bad_frames(KAPPA, 1))
    def test_seed_offerer_refuses_bad_choice_corrections(self, bad):
        offerer, _ = seed_cot_pair()
        with pytest.raises(ProtocolError):
            base_cot_receive(
                ScriptedChannel([bad]), np.zeros(self.N, np.uint8),
                np.random.default_rng(0), offerer,
            )

    def test_a_huge_announced_count_allocates_nothing(self):
        inbound = [bytes(16 * KAPPA)] * 2 + [(1 << 63).to_bytes(8, "little"), frame(0, 8)]
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="extends to 9223372036854775808 COTs"):
                self.delta_holder(inbound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.fixture
def pkc_counts(monkeypatch):
    """Sizes of every PKC OT batch run in this process, by role."""
    counts = {"send": [], "receive": []}
    real_send, real_receive = base_ot.base_ot_send, base_ot.base_ot_receive

    def counting_send(channel, messages0, messages1, **kwargs):
        counts["send"].append(messages0.shape[0])
        return real_send(channel, messages0, messages1, **kwargs)

    def counting_receive(channel, choices, **kwargs):
        counts["receive"].append(len(choices))
        return real_receive(channel, choices, **kwargs)

    monkeypatch.setattr(base_ot, "base_ot_send", counting_send)
    monkeypatch.setattr(base_ot, "base_ot_receive", counting_receive)
    return counts


class TestPkcCounts:
    def test_one_ferret_setup_is_exactly_kappa_pkc_ots(self, pkc_counts):
        assert CFG.base_cots_needed > KAPPA
        sender, receiver = FerretSender(CFG, seed=1), FerretReceiver(CFG, seed=2)
        run_pair(sender.setup, receiver.setup)
        assert pkc_counts == {"send": [KAPPA], "receive": [KAPPA]}
        s, r, _, _ = run_pair(sender.extend, receiver.extend)
        assert verify_cot(s, r)
        assert pkc_counts == {"send": [KAPPA], "receive": [KAPPA]}

    def test_service_pair_is_one_kappa_pkc_batch_per_side(self, pkc_counts):
        """Both directions of a pair: the forward mint is the only PKC
        run, and both directions' first extends correlate."""
        with service_pair(ServiceTuning(), seed=0x5AD0) as services:
            assert pkc_counts == {"send": [KAPPA], "receive": [KAPPA]}
            verify_first_extends(services, CFG.net_output)
        assert pkc_counts == {"send": [KAPPA], "receive": [KAPPA]}

    def test_forward_only_pair_mints_both_directions(self, pkc_counts, monkeypatch):
        """The cold start does not depend on what is drawn: forward-only
        traffic still mints ``base_cots_needed + KAPPA`` forward COTs
        and ``base_cots_needed`` reverse ones from the spare, in one PKC
        batch, and builds and extends no reverse pool."""
        sizes = []
        for name, size in (
            ("base_cot_send", lambda a: a[1]), ("base_cot_receive", lambda a: len(a[1]))
        ):
            def counted(*args, _real=getattr(protocol, name), _size=size):
                sizes.append(_size(args))
                return _real(*args)

            monkeypatch.setattr(protocol, name, counted)
        need = CFG.base_cots_needed
        with service_pair(ServiceTuning(), seed=0x5AD2) as services:
            assert sorted(sizes) == [need, need, need + KAPPA, need + KAPPA]
            assert pkc_counts == {"send": [KAPPA], "receive": [KAPPA]}
            verify_first_extends(services, CFG.net_output, directions=("fwd",))
            for svc in services:
                assert "cot/rev" not in svc.pools and svc.extends["rev"] == 0


def cold_start_bytes(n: int) -> dict:
    """``(direction, party) -> bytes sent`` of a service pair's cold
    start minting ``n`` COTs per direction, from the frame shapes alone.
    Forward: P1 (the COT receiver) is the PKC sender -- ``n`` header,
    ``A``, the 2 x 128-block payload -- then sends IKNP's header and
    correction matrix for ``n + KAPPA`` COTs; P0 sends the element blob.
    Reverse: P0 offers the seed pairs as derandomized OTs over the 128
    spare forward COTs, then sends IKNP for ``n``; P1 sends its choice
    corrections."""
    header = lanes_bytes(1, 64)

    def iknp(m: int) -> int:
        return header + lanes_bytes(KAPPA * ((m + 7) // 8), 8)

    return {
        ("fwd", 0): lanes_bytes(KAPPA * DEFAULT_GROUP.width, 8),
        ("fwd", 1): header + lanes_bytes(DEFAULT_GROUP.width, 8) + ot_reply_bytes(KAPPA)
        + iknp(n + KAPPA),
        ("rev", 0): ot_reply_bytes(KAPPA) + iknp(n),
        ("rev", 1): lanes_bytes(KAPPA, 1),
    }


def mint_service_pair(configs: tuple) -> dict:
    """Run ``CorrelationService.mint_base_cots`` on both parties, party p
    configured with ``configs[p]``; returns the ``fwd`` / ``rev``
    channel pairs it ran over."""
    bases = LocalChannel.pair(timeout=60.0)
    muxes = [MuxChannel(base, timeout=60.0) for base in bases]
    links = {direction: LocalChannel.pair(timeout=60.0) for direction in ("fwd", "rev")}
    try:
        services = [
            CorrelationService(party, muxes[party], configs[party], ServiceTuning(), seed=0x5AD3)
            for party in (0, 1)
        ]
        run_concurrently(
            *(
                lambda party=party: services[party].mint_base_cots(
                    links["fwd"][party], links["rev"][party]
                )
                for party in (0, 1)
            ),
            timeout=120.0,
        )
    finally:
        for mux in muxes:
            mux.close()
    return links


class TestColdStartBytes:
    @pytest.mark.parametrize("scale", [1024, 512])
    def test_service_pair_mint_matches_the_byte_model(self, scale):
        """``CorrelationService.mint_base_cots`` of both parties: the bytes
        each sends on its forward and reverse channel equal
        :func:`cold_start_bytes`."""
        cfg = FerretConfig.small(scale=scale, arity=4, prg_kind="chacha8")
        links = mint_service_pair((cfg, cfg))
        sent = {
            (direction, party): links[direction][party].stats.bytes_sent
            for direction in ("fwd", "rev")
            for party in (0, 1)
        }
        assert sent == cold_start_bytes(cfg.base_cots_needed)

    def test_a_desynced_pair_fails_in_seconds_not_a_recv_timeout(self):
        """Party 1's Ferret config needs fewer base COTs than party 0's:
        the side that sees the IKNP ``n`` header mismatch raises, and the
        caller gets that error at once, while the peer is still blocked
        on its 60 s receive."""
        other = FerretConfig.small(scale=512, arity=4, prg_kind="chacha8")
        assert other.base_cots_needed != CFG.base_cots_needed
        started = time.monotonic()
        with pytest.raises(PartyError, match="COTs") as err:
            mint_service_pair((CFG, other))
        assert time.monotonic() - started < 5.0
        assert isinstance(err.value.__cause__, ProtocolError)


@contextlib.contextmanager
def service_pair(tuning, seed):
    """A started, ready CorrelationService pair in this process."""
    base_a, base_b = LocalChannel.pair(timeout=120.0)
    muxes = MuxChannel(base_a, timeout=120.0), MuxChannel(base_b, timeout=120.0)
    services = [
        CorrelationService(party, muxes[party], CFG, tuning, seed=seed).start()
        for party in (0, 1)
    ]
    try:
        for svc in services:
            svc.wait_ready(120.0)
        yield services
    finally:
        for svc in services:
            svc.stop()
        for mux in muxes:
            mux.close()


def verify_first_extends(services, n, directions=("fwd", "rev")):
    """Draw ``n`` COTs of each direction on both parties and check the
    correlation (party 0 sends forward, party 1 in reverse)."""
    for direction in directions:
        kind = f"cot/{direction}"
        got = run_concurrently(
            lambda: services[0].session(kind).draw([(kind, (), n)])[0][0],
            lambda: services[1].session(kind).draw([(kind, (), n)])[0][0],
            timeout=120.0,
        )
        sender, receiver = got if direction == "fwd" else got[::-1]
        assert verify_cot(sender, receiver), direction
