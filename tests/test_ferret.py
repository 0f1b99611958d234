"""End-to-end Ferret protocol tests (setup -> extend -> bootstrap)."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.ferret import protocol as ferret_protocol
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender, ferret_pair
from repro.lpn.params import LpnParams, scaled_params
from repro.ot.channel import run_pair
from repro.ot.cot import verify_cot
from repro.spcot.mpcot import block_sizes, depth_runs
from repro.utils.bitops import log_base

from oracles import mpcot_receive_sequential, mpcot_send_sequential

SMALL = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")


@pytest.fixture(scope="module")
def two_rounds():
    return ferret_pair(SMALL, rounds=2, seed=11)


class TestConfig:
    def test_paper_config_by_label(self):
        cfg = FerretConfig.paper("2^22", arity=4, prg_kind="chacha8")
        assert cfg.params.n == 4531924
        assert cfg.arity == 4

    def test_rejects_non_power_arity(self):
        with pytest.raises(Exception):
            FerretConfig(params=scaled_params(), arity=3)

    def test_base_cots_cover_lpn_and_spcot(self):
        cfg = SMALL
        assert cfg.base_cots_needed == cfg.params.k + cfg.spcot_cots
        assert cfg.net_output == cfg.params.n - cfg.base_cots_needed
        assert cfg.net_output > 0

    def test_make_prg_matches_config(self):
        prg = SMALL.make_prg()
        assert prg.arity == SMALL.arity
        assert prg.name == SMALL.prg_kind


class TestProtocol:
    def test_outputs_are_valid_cots(self, two_rounds):
        s_out, r_out, _, _ = two_rounds
        for sb, rb in zip(s_out, r_out):
            assert verify_cot(sb, rb)

    def test_output_size_matches_config(self, two_rounds):
        s_out, _, _, _ = two_rounds
        assert all(len(b) == SMALL.net_output for b in s_out)

    def test_rounds_are_independent_correlations(self, two_rounds):
        s_out, _, _, _ = two_rounds
        assert not np.array_equal(s_out[0].z, s_out[1].z)

    def test_delta_constant_across_rounds(self, two_rounds):
        s_out, _, _, _ = two_rounds
        assert np.array_equal(s_out[0].delta, s_out[1].delta)

    def test_choice_bits_look_uniform(self, two_rounds):
        _, r_out, _, _ = two_rounds
        bits = np.concatenate([b.x for b in r_out])
        assert 0.42 < bits.mean() < 0.58

    def test_communication_is_sublinear(self, two_rounds):
        """PCG-style OTE: per-COT online communication << 16 bytes."""
        s_out, _, s_stats, r_stats = two_rounds
        total_cots = sum(len(b) for b in s_out)
        online = s_stats.bytes_sent + r_stats.bytes_sent
        assert online / total_cots < 16

    def test_extend_before_setup_raises(self):
        sender = FerretSender(SMALL)
        with pytest.raises(ProtocolError):
            sender.extend(None)
        receiver = FerretReceiver(SMALL)
        with pytest.raises(ProtocolError):
            receiver.extend(None)

    def test_stats_recorded(self, two_rounds):
        # ferret_pair drives FerretSender internally; re-run tiny to check
        s_out, r_out, _, _ = ferret_pair(SMALL, rounds=1, seed=3)
        assert verify_cot(s_out[0], r_out[0])


def run_ferret_session(config, rounds=1, seed=7):
    """Like ferret_pair but also hands back the party objects."""
    sender = FerretSender(config, seed=seed)
    receiver = FerretReceiver(config, seed=seed + 1)

    def run_sender(channel):
        sender.setup(channel)
        return [sender.extend(channel) for _ in range(rounds)]

    def run_receiver(channel):
        receiver.setup(channel)
        return [receiver.extend(channel) for _ in range(rounds)]

    s_out, r_out, s_stats, r_stats = run_pair(run_sender, run_receiver)
    return sender, receiver, s_out, r_out, s_stats, r_stats


def use_sequential_mpcot(monkeypatch):
    """Run Ferret's extend over the per-tree, per-level reference MPCOT."""
    monkeypatch.setattr(ferret_protocol, "mpcot_send", mpcot_send_sequential)
    monkeypatch.setattr(ferret_protocol, "mpcot_receive", mpcot_receive_sequential)


class TestExtendStats:
    #: t deliberately much larger than the GGM depth so O(t * depth) and
    #: O(depth) round counts are far apart.
    ROUND_PARAMS = LpnParams("round-test", 2048, 64, 32, 32, 0.0)

    def test_bytes_sent_is_per_iteration_delta(self):
        """bytes_sent must snapshot per extend, not report channel totals."""
        cfg = FerretConfig(params=self.ROUND_PARAMS, arity=4, prg_kind="chacha8")
        sender, receiver, _, _, s_stats, _ = run_ferret_session(cfg, rounds=2)
        # Cumulative channel bytes include setup, so a per-iteration delta
        # must be strictly smaller than the session total.
        assert sender.last_stats.bytes_sent < s_stats.bytes_sent
        assert receiver.last_stats.bytes_sent < s_stats.bytes_received
        assert sender.last_stats.bytes_sent > 0
        assert receiver.last_stats.bytes_sent > 0

    def test_receiver_has_last_stats_like_sender(self):
        cfg = FerretConfig(params=self.ROUND_PARAMS, arity=4, prg_kind="chacha8")
        sender, receiver, _, _, _, _ = run_ferret_session(cfg)
        for stats in (sender.last_stats, receiver.last_stats):
            assert stats.n_output == cfg.params.n - cfg.base_cots_needed
            assert stats.prg_calls > 0
            assert stats.bytes_sent > 0
        runs = len(depth_runs(block_sizes(cfg.params.n, cfg.params.t), cfg.arity))
        assert sender.last_stats.rounds == runs
        # The receiver opens its extend with a send (the correction bits);
        # when setup() also ended on a send that is the same flight, not a
        # new round.
        assert receiver.last_stats.rounds in {runs - 1, runs}

    @pytest.mark.parametrize(
        "arity,params",
        [
            (2, ROUND_PARAMS),
            (4, ROUND_PARAMS),
            (4, LpnParams("deep", 8192, 2048, 4, 4, 0.0)),  # depth 6 instead of 3
            (4, LpnParams("two-runs", 1987, 65, 32, 31, 0.0)),  # blocks of 65 and 64 leaves
        ],
        ids=["binary", "4ary", "deep", "two-runs"],
    )
    def test_extend_rounds_independent_of_depth_arity_and_t(self, arity, params):
        """One SPCOT exchange per same-depth run, whatever the tree shape:
        the sender answers the receiver's single message once per run."""
        cfg = FerretConfig(params=params, arity=arity, prg_kind="chacha8")
        sender, receiver, _, _, _, _ = run_ferret_session(cfg, rounds=2)
        runs = len(depth_runs(block_sizes(params.n, params.t), arity))
        assert sender.last_stats.rounds == runs
        assert receiver.last_stats.rounds == runs  # second extend: follows a receive

    def test_sequential_path_still_pays_per_tree_rounds(self, monkeypatch):
        """The oracle keeps its O(t * depth) shape -- proving the one-shot
        protocol is what removed the factors of t and depth."""
        params = self.ROUND_PARAMS
        cfg = FerretConfig(params=params, arity=4, prg_kind="chacha8")
        use_sequential_mpcot(monkeypatch)
        sender, _, _, _, _, _ = run_ferret_session(cfg)
        depth = log_base(params.tree_leaves(4), 4)
        assert sender.last_stats.rounds >= params.t * depth

    def test_batched_and_sequential_outputs_match(self, monkeypatch):
        cfg = FerretConfig(params=self.ROUND_PARAMS, arity=4, prg_kind="chacha8")
        _, _, sb, rb, _, _ = run_ferret_session(cfg, seed=21)
        use_sequential_mpcot(monkeypatch)
        _, _, ss, rs, _, _ = run_ferret_session(cfg, seed=21)
        assert np.array_equal(sb[0].z, ss[0].z)
        assert np.array_equal(rb[0].x, rs[0].x)
        assert np.array_equal(rb[0].y, rs[0].y)


class TestVariants:
    @pytest.mark.parametrize(
        "arity,prg", [(2, "aes"), (2, "chacha8"), (4, "chacha8"), (4, "aes")]
    )
    def test_all_prg_arity_combinations(self, arity, prg):
        cfg = FerretConfig.small(scale=2048, arity=arity, prg_kind=prg)
        s_out, r_out, _, _ = ferret_pair(cfg, rounds=1, seed=5)
        assert verify_cot(s_out[0], r_out[0])

    def test_matrix_seed_shared_and_deterministic(self):
        a = FerretSender(SMALL, seed=1).matrix
        b = FerretReceiver(SMALL, seed=99).matrix
        assert np.array_equal(a.indices, b.indices)
