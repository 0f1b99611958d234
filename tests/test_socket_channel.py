"""SocketChannel tests: framing, timeouts, and real-process transport.

Acceptance: every existing protocol runs unchanged over SocketChannel
between two processes, with at least one test using a real socketpair.
"""

import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.crypto import blocks
from repro.errors import ChannelClosed, ChannelTimeout
from repro.ferret.config import FerretConfig
from repro.ferret.protocol import FerretReceiver, FerretSender
from repro.mpc.sharing import from_signed, reconstruct_arith, share_arith, to_signed
from repro.ot.base_ot import base_cot_receive, base_cot_send
from repro.ot.channel import SocketChannel
from repro.ot.cot import CotReceiverBatch, CotSenderBatch, verify_cot


def socket_run_pair(party_a, party_b, timeout=120.0):
    """run_pair over a real OS socketpair instead of in-memory queues."""
    chan_a, chan_b = SocketChannel.pair(timeout=timeout)
    results, errors = {}, {}

    def runner(name, fn, chan):
        try:
            results[name] = fn(chan)
        except BaseException as exc:  # noqa: BLE001
            errors[name] = exc

    t_a = threading.Thread(target=runner, args=("a", party_a, chan_a), daemon=True)
    t_b = threading.Thread(target=runner, args=("b", party_b, chan_b), daemon=True)
    t_a.start(), t_b.start()
    t_a.join(timeout), t_b.join(timeout)
    assert not errors, f"party failed: {errors}"
    return results["a"], results["b"], chan_a, chan_b


class TestFraming:
    def test_roundtrip_bytes(self):
        a, b = SocketChannel.pair()
        a.send_bytes(b"over the wire")
        assert b.recv_bytes() == b"over the wire"
        a.close(), b.close()

    def test_empty_message_preserved(self):
        a, b = SocketChannel.pair()
        a.send_bytes(b"")
        a.send_bytes(b"after-empty")
        assert b.recv_bytes() == b""
        assert b.recv_bytes() == b"after-empty"
        a.close(), b.close()

    def test_large_message_survives_fragmentation(self, rng):
        a, b = SocketChannel.pair()
        data = blocks.random_blocks(100_000, rng)  # 1.6 MB, many TCP segments
        out = {}

        def send():
            a.send_blocks(data)

        def recv():
            out["got"] = b.recv_blocks()

        ts = [threading.Thread(target=f) for f in (send, recv)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(30.0)
        assert np.array_equal(out["got"], data)
        a.close(), b.close()

    def test_message_boundaries_kept(self):
        a, b = SocketChannel.pair()
        for i in range(10):
            a.send_bytes(bytes([i]) * (i + 1))
        for i in range(10):
            assert b.recv_bytes() == bytes([i]) * (i + 1)
        a.close(), b.close()

    def test_recv_timeout(self):
        a, b = SocketChannel.pair()
        with pytest.raises(ChannelTimeout):
            b.recv_bytes(timeout=0.1)
        a.close(), b.close()

    def test_peer_close_raises_channel_closed(self):
        a, b = SocketChannel.pair()
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv_bytes(timeout=1.0)
        b.close()

    def test_stats_count_payload_bytes(self):
        a, b = SocketChannel.pair()
        a.send_bytes(b"x" * 100)
        b.recv_bytes()
        assert a.stats.bytes_sent == 100
        assert b.stats.bytes_received == 100
        assert a.stats.messages_sent == 1

    def test_partial_message_survives_timeout(self):
        """A timeout mid-message must not desynchronize the framing: the
        buffered prefix is kept and the next recv resumes it (the mux
        pump polls with short timeouts, so this path is routine)."""
        import socket as socket_mod
        import struct

        sa, sb = socket_mod.socketpair()
        chan = SocketChannel(sb, timeout=10.0)
        payload = b"resumable-message"
        # Trickle: header + half the payload first.
        frame = struct.pack("<Q", len(payload)) + payload
        sa.sendall(frame[:12])
        with pytest.raises(ChannelTimeout):
            chan.recv_bytes(timeout=0.15)
        sa.sendall(frame[12:])
        assert chan.recv_bytes(timeout=2.0) == payload
        sa.close(), chan.close()

    def test_concurrent_send_unaffected_by_recv_timeout(self):
        """Receive timeouts are select()-based; they must not put the
        socket into a timed mode that can interrupt a concurrent send."""
        a, b = SocketChannel.pair()
        stop = threading.Event()
        errors = []

        def poller():
            while not stop.is_set():
                try:
                    b.recv_bytes(timeout=0.02)
                except ChannelTimeout:
                    continue
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        got = []

        def reader():
            try:
                for _ in range(3):
                    got.append(a.recv_bytes(timeout=30.0))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        t = threading.Thread(target=poller)
        r = threading.Thread(target=reader)
        t.start(), r.start()
        try:
            big = b"z" * (4 << 20)  # larger than any socket buffer
            for _ in range(3):
                b.send_bytes(big)  # sender shares the polling endpoint
            r.join(30.0)
        finally:
            stop.set()
            t.join(5.0)
        assert not errors
        assert got == [big] * 3
        a.close(), b.close()

    def test_half_close_mid_frame_reports_partial_byte_count(self):
        """A peer that dies mid-frame must surface ChannelClosed naming
        how far the frame got -- never a bare struct.error from a short
        length header."""
        import socket as socket_mod
        import struct

        sa, sb = socket_mod.socketpair()
        chan = SocketChannel(sb, timeout=5.0)
        payload = b"q" * 64
        frame = struct.pack("<Q", len(payload)) + payload
        sa.sendall(frame[:20])  # header + 12 payload bytes, then hang up
        sa.close()
        with pytest.raises(ChannelClosed, match=r"mid-frame \(20 of 72"):
            chan.recv_bytes(timeout=2.0)
        chan.close()

    def test_half_close_inside_header_reports_partial_byte_count(self):
        import socket as socket_mod

        sa, sb = socket_mod.socketpair()
        chan = SocketChannel(sb, timeout=5.0)
        sa.sendall(b"\x05\x00\x00")  # 3 of the 8 header bytes
        sa.close()
        with pytest.raises(ChannelClosed, match=r"mid-frame \(3 of 8"):
            chan.recv_bytes(timeout=2.0)
        chan.close()


class TestListener:
    def test_accept_timeout_keeps_listener_usable(self):
        listener = SocketChannel.listen()
        with pytest.raises(ChannelTimeout, match="no peer connected"):
            listener.accept(accept_timeout=0.1)
        # The listener survived the timeout: a late dialer still lands.
        out = {}

        def dial():
            out["c"] = SocketChannel.connect("127.0.0.1", listener.port, timeout=5.0)

        t = threading.Thread(target=dial)
        t.start()
        server = listener.accept(accept_timeout=5.0, keep_open=True)
        t.join(5.0)
        out["c"].send_bytes(b"late but fine")
        assert server.recv_bytes(timeout=5.0) == b"late but fine"
        server.close(), out["c"].close(), listener.close()

    def test_keep_open_listener_accepts_redials(self):
        listener = SocketChannel.listen()
        for i in range(3):
            out = {}

            def dial():
                out["c"] = SocketChannel.connect(
                    "127.0.0.1", listener.port, timeout=5.0
                )

            t = threading.Thread(target=dial)
            t.start()
            server = listener.accept(accept_timeout=5.0, keep_open=True)
            t.join(5.0)
            out["c"].send_bytes(f"epoch-{i}".encode())
            assert server.recv_bytes(timeout=5.0) == f"epoch-{i}".encode()
            server.close(), out["c"].close()
        listener.close()

    def test_closed_listener_raises_channel_closed_on_accept(self):
        listener = SocketChannel.listen()
        listener.close()
        with pytest.raises(ChannelClosed, match="listener closed"):
            listener.accept(accept_timeout=0.5)


class TestProtocolsOverSocketpair:
    def test_base_cot_over_socketpair(self, rng):
        n = 8
        delta = blocks.random_blocks(1, rng)
        choices = rng.integers(0, 2, n).astype(np.uint8)
        r, y, _, _ = socket_run_pair(
            lambda ch: base_cot_send(ch, n, delta, rng),
            lambda ch: base_cot_receive(ch, choices, rng),
        )
        assert verify_cot(CotSenderBatch(delta, r), CotReceiverBatch(choices, y))

    def test_ferret_extend_over_socketpair(self):
        """The full OTE protocol (setup + extend), unchanged, over sockets."""
        cfg = FerretConfig.small(scale=2048, arity=4, prg_kind="chacha8")
        sender, receiver = FerretSender(cfg, seed=31), FerretReceiver(cfg, seed=32)

        def s_side(ch):
            sender.setup(ch)
            return sender.extend(ch)

        def r_side(ch):
            receiver.setup(ch)
            return receiver.extend(ch)

        s_out, r_out, chan_s, _ = socket_run_pair(s_side, r_side)
        assert verify_cot(s_out, r_out)
        assert len(s_out) == cfg.net_output
        assert chan_s.stats.bytes_sent > 0


#: Child process: the OT receiver side of a base-COT run over TCP.
_CHILD_CODE = """
import sys
import numpy as np
from repro.ot.base_ot import base_cot_receive
from repro.ot.channel import SocketChannel

port = int(sys.argv[1])
n = int(sys.argv[2])
seed = int(sys.argv[3])
rng = np.random.default_rng(seed)
choices = rng.integers(0, 2, n).astype(np.uint8)
chan = SocketChannel.connect("127.0.0.1", port, timeout=60.0)
y = base_cot_receive(chan, choices, rng)
np.save(sys.stdout.buffer, y)
chan.close()
"""


class TestTwoRealProcesses:
    def test_base_cot_between_two_processes(self, rng, tmp_path):
        """Two genuinely separate OS processes run the PKC base-OT
        protocol over TCP; the correlation verifies in the parent."""
        import io
        import os
        import pathlib

        n, child_seed = 6, 1234
        delta = blocks.random_blocks(1, rng)
        listener = SocketChannel.listen("127.0.0.1", 0, timeout=60.0)
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_CODE, str(listener.port), str(n), str(child_seed)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            chan = listener.accept(accept_timeout=30.0)
            r = base_cot_send(chan, n, delta, rng)
            out, err = child.communicate(timeout=60.0)
            assert child.returncode == 0, err.decode()[-2000:]
            y = np.load(io.BytesIO(out))
            choices = np.random.default_rng(child_seed).integers(0, 2, n).astype(np.uint8)
            assert verify_cot(CotSenderBatch(delta, r), CotReceiverBatch(choices, y))
            chan.close()
        finally:
            child.kill()


class TestMpcOverSockets:
    def test_relu_preprocessing_and_online_over_sockets(self, rng):
        """A full ReLU (triples + comparison + mux) with every message on
        a real socket -- the protocol stack is transport-agnostic."""
        from repro.mpc.compare import cots_needed, triples_needed
        from repro.mpc.relu import relu_pair
        from repro.mpc.triples import generate_bit_triples
        from repro.ot.cot import CotPool

        bits, n = 8, 6
        vals = rng.integers(-100, 100, n)
        s0, s1 = share_arith(from_signed(vals, bits).astype(np.uint64), rng, bits=bits)

        def make_pools(count, seed):
            gen = np.random.default_rng(seed)
            delta = blocks.random_blocks(1, gen)
            choices = gen.integers(0, 2, count).astype(np.uint8)
            r, y, _, _ = socket_run_pair(
                lambda ch: base_cot_send(ch, count, delta, gen),
                lambda ch: base_cot_receive(ch, choices, np.random.default_rng(seed + 1)),
            )
            return (
                CotPool(sender=CotSenderBatch(delta, r)),
                CotPool(receiver=CotReceiverBatch(choices, y)),
            )

        cmp0, cmp1 = make_pools(cots_needed(n, bits - 1), 41)
        mux0_s, mux1_r = make_pools(n, 42)
        mux1_s, mux0_r = make_pools(n, 43)
        nt = triples_needed(n, bits - 1)
        tp0_s, tp1_r = make_pools(nt, 44)
        tp1_s, tp0_r = make_pools(nt, 45)
        rng0, rng1 = np.random.default_rng(7), np.random.default_rng(8)
        t0, t1, _, _ = socket_run_pair(
            lambda ch: generate_bit_triples(ch, nt, tp0_s, tp0_r, rng0, party=0),
            lambda ch: generate_bit_triples(ch, nt, tp1_s, tp1_r, rng1, party=1),
        )
        (y0, _), (y1, _), _, _ = socket_run_pair(
            lambda ch: relu_pair(ch, s0, cmp0, mux0_s, mux0_r, t0, rng0, party=0),
            lambda ch: relu_pair(ch, s1, cmp1, mux1_s, mux1_r, t1, rng1, party=1),
        )
        got = to_signed(reconstruct_arith(y0, y1), bits)
        assert np.array_equal(got, np.maximum(vals, 0))
