"""The one online executor: ``compile_ops`` gate indices and fusion, and
``run_online`` giving the same answer, draws and session bytes whether
it runs after an all-at-once prefill, under a pipelined prefill, or
inside the serving daemon.

The numpy references below walk the graph trace themselves -- they are
the oracle and stay independent of ``compile_ops``.
"""

import numpy as np
import pytest
from parties import in_background, run_both, start_service_pair

from repro.errors import ParameterError
from repro.ferret.config import FerretConfig
from repro.mpc.sharing import from_signed, share_arith_nd
from repro.mpc.triples import ring_mask_u64
from repro.mpc.truncation import FixedPointConfig
from repro.ppml.layers import Activation, Graph, Linear, MaxPool2d, Rescale
from repro.ppml.plan import plan_graph
from repro.runtime import (
    DaemonConfig,
    InferenceDaemon,
    ServiceTuning,
    compile_ops,
    run_online,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from strategies import GraphStrategies  # noqa: E402

CFG = FerretConfig.small(scale=1024, arity=4, prg_kind="chacha8")
BITS = 16
FX = FixedPointConfig(bits=BITS, frac_bits=4, mag_bits=9)
MASK = ring_mask_u64(BITS)
#: Plan-driven production only, so the zero-stall checks are deterministic.
TUNING = ServiceTuning(
    ring_bits=BITS,
    triple_chunk=512,
)
LAYERS = {"L": Linear, "R": Rescale, "a": lambda: Activation("relu")}


def mlp(name, spec, dims):
    """``spec`` spells the trace (L linear, R rescale, a relu); ``dims`` is
    the input shape followed by one width per linear layer."""
    graph = Graph(name, tuple(dims[:2]))
    widths = iter(dims[2:])
    for ch in spec:
        graph.add(Linear(next(widths)) if ch == "L" else LAYERS[ch]())
    return graph


def oracle(graph, x, weights, frac_bits=FX.frac_bits):
    """Plaintext fixed-point reference, straight off the trace."""
    h, ws = np.asarray(x, dtype=np.int64), iter(weights)
    for layer, _, _ in graph.trace:
        if isinstance(layer, Linear):
            h = h @ next(ws)
        elif isinstance(layer, Rescale):
            h = h >> frac_bits
        else:
            h = np.maximum(h, 0)
    return (h & int(MASK)).astype(np.uint64)


def random_model(graph, gen, batch=1):
    """Plain inputs/weights of a graph plus their per-party shares."""
    xs = [gen.integers(-4, 4, graph.input_shape) for _ in range(batch)]
    ws = [
        gen.integers(-2, 2, (in_shape[-1], layer.out_features))
        for layer, in_shape, _ in graph.trace
        if isinstance(layer, Linear)
    ]
    share = lambda mat: share_arith_nd(from_signed(mat, BITS), gen, bits=BITS)  # noqa: E731
    x_sh, w_sh = [share(x) for x in xs], [share(w) for w in ws]
    per_party = lambda shares, p: [s[p] for s in shares]  # noqa: E731
    return xs, ws, [
        (per_party(x_sh, p), per_party(w_sh, p)) for p in (0, 1)
    ]


def errors(svcs) -> tuple:
    return tuple(svc.error for svc in svcs)


@pytest.fixture(scope="module")
def services():
    *svcs, mux0, mux1 = start_service_pair(CFG, TUNING, seed=0xE7EC)
    muxes = mux0, mux1
    yield svcs, muxes
    for svc in svcs:
        svc.stop()
    for mux in muxes:
        mux.close()


class TestCompileOps:
    """The gate tuples the call sites used to keep by hand."""

    @pytest.mark.parametrize("name,spec,kinds,gates", [
        ("QuantMLP3", "LRaLRL",
         ("linear_rescale", "relu", "linear_rescale", "linear"), (1, 2, 4, 5)),
        ("PipeMLP", "LRaLRaL",
         ("linear_rescale", "relu", "linear_rescale", "relu", "linear"),
         (1, 2, 4, 5, 6)),
        ("daemon-mlp", "LRaL", ("linear_rescale", "relu", "linear"), (1, 2, 3)),
    ])
    def test_gates_and_fusion_of_the_graphs_in_use(self, name, spec, kinds, gates):
        ops = compile_ops(mlp(name, spec, (4, 12, 6, 5, 3)[: 2 + spec.count("L")]))
        assert tuple(op[0] for op in ops) == kinds
        assert tuple(op[1] for op in ops) == gates
        linear = [op[2] for op in ops if op[0] != "relu"]
        assert linear == list(range(spec.count("L")))

    def test_unsupported_layers_raise(self):
        bare = Graph("bare", (2, 3)).add(Rescale())
        with pytest.raises(ParameterError, match="rescale"):
            compile_ops(bare)
        gelu = Graph("gelu", (2, 3)).add(Linear(2)).add(Activation("gelu"))
        with pytest.raises(ParameterError, match="act"):
            compile_ops(gelu)
        pool = Graph("pool", (1, 4, 4)).add(MaxPool2d(2))
        with pytest.raises(ParameterError, match="supported"):
            compile_ops(pool)

    def test_weight_count_checked_before_any_draw(self):
        plan = plan_graph(mlp("w", "LaL", (2, 3, 4, 2)), bits=BITS)
        with pytest.raises(ParameterError, match="2 linear layers, got 1"):
            run_online(plan, None, [np.zeros((3, 4))], [np.zeros((2, 3))], None)

    @given(graph=GraphStrategies.mlp_graphs())
    def test_every_plan_layer_is_gated_once_in_order(self, graph):
        """Gates rise strictly, end at the last plan layer, and an op
        covers two layers exactly when it fused a Rescale."""
        ops = compile_ops(graph)
        covered = sum(2 if kind == "linear_rescale" else 1 for kind, _, _ in ops)
        gates = [gate for _, gate, _ in ops]
        assert gates == sorted(set(gates))
        assert covered == len(graph.trace) == gates[-1] + 1


class TestThreeWaysOneAnswer:
    """Same model and inputs through all-at-once prefill, pipelined
    prefill and the daemon, at B = 1 and B = 3."""

    @pytest.fixture(scope="class")
    def runs(self, services):
        svcs, muxes = services
        graph = mlp("daemon-mlp", "LRaL", (2, 6, 4, 3))
        plan = plan_graph(graph, bits=BITS, fx=FX)
        gen = np.random.default_rng(0xE0)
        xs, ws, parties = random_model(graph, gen, batch=3)
        expect = [oracle(graph, x, ws) for x in xs]

        def measured(tag, batch, go):
            """Run ``go`` on both parties; record outputs and what the
            leader drew, stalled and sent on ``sess/<tag>`` meanwhile."""
            svc0, mux0 = svcs[0], muxes[0]
            draws = svc0.session_draw_counts()
            stalls = {k: s["stalled_draws"] for k, s in svc0.pool_stats().items()}
            sent = mux0.stats_by_tag().get(f"sess/{tag}")
            sent = (sent.bytes_sent, sent.messages_sent) if sent else (0, 0)
            z0, z1 = run_both(lambda: go(0), lambda: go(1), ctx=errors(svcs))
            after = mux0.stats_by_tag()[f"sess/{tag}"]
            msgs = after.messages_sent - sent[1]
            return {
                "got": [(a + b) & MASK for a, b in zip(z0, z1)],
                "draws": {
                    kind: svc0.session_draw_counts().get(kind, 0) - draws.get(kind, 0)
                    for kind in plan.pool_targets()
                },
                "stalls": sum(
                    svc0.pool_stats()[kind]["stalled_draws"] - stalls.get(kind, 0)
                    for kind in plan.pool_targets()
                ),
                # Payload bytes: the per-message mux framing carries the
                # tag, whose length differs between the session names.
                "payload": after.bytes_sent - sent[0] - (2 + len(f"sess/{tag}")) * msgs,
                "messages": msgs,
            }

        def online(tag, party, batch, wait_layer=None):
            x_sh, w_sh = parties[party]
            return run_online(
                plan, svcs[party].session(tag), w_sh, x_sh[:batch],
                np.random.default_rng(party), wait_layer,
            )

        def all_at_once(batch):
            def go(party):
                plan.prefill_pipelined(svcs[party], timeout=240.0, batch=batch).run()
                return online("allat", party, batch)

            return go

        def pipelined(batch):
            def go(party):
                pipe = plan.prefill_pipelined(svcs[party], timeout=240.0, batch=batch)
                join = in_background(pipe)
                out = online("piped", party, batch, pipe.wait_layer)
                join()
                return out

            return go

        out = {}
        for batch in (1, 3):
            out["all_at_once", batch] = measured("allat", batch, all_at_once(batch))
            out["pipelined", batch] = measured("piped", batch, pipelined(batch))

        dcfg = DaemonConfig(lease_ttl_s=60.0, request_timeout_s=120.0)
        daemons = [
            InferenceDaemon(svc, graph, parties[p][1], fx=FX, cfg=dcfg).start()
            for p, svc in enumerate(svcs)
        ]
        for batch in (1, 3):
            out["daemon", batch] = measured(
                "daemon", batch,
                lambda p, batch=batch: daemons[p].submit(
                    "cli", parties[p][0][:batch]
                ).result(120.0),
            )
        run_both(
            lambda: daemons[0].stop(60.0), lambda: daemons[1].stop(60.0),
            ctx=errors(svcs),
        )
        return {"runs": out, "plan": plan, "expect": expect}

    @pytest.mark.parametrize("batch", [1, 3])
    def test_outputs_identical_and_bit_exact(self, runs, batch):
        for mode in ("all_at_once", "pipelined", "daemon"):
            got = runs["runs"][mode, batch]["got"]
            assert len(got) == batch
            for g, e in zip(got, runs["expect"]):
                assert np.array_equal(g, e), mode

    @pytest.mark.parametrize("batch", [1, 3])
    def test_draws_are_plan_times_batch_and_stall_free(self, runs, batch):
        planned = {k: n * batch for k, n in runs["plan"].pool_targets().items()}
        for mode in ("all_at_once", "pipelined", "daemon"):
            run = runs["runs"][mode, batch]
            assert run["draws"] == planned, mode
            assert run["stalls"] == 0, mode

    @pytest.mark.parametrize("batch", [1, 3])
    def test_session_traffic_equal_across_modes(self, runs, batch):
        wire = {
            (run["payload"], run["messages"])
            for (mode, b), run in runs["runs"].items() if b == batch
        }
        assert len(wire) == 1, wire


class TestGraphSweep:
    @settings(max_examples=12, deadline=None)
    @given(graph=GraphStrategies.mlp_graphs())
    def test_any_mlp_shape_is_bit_exact_and_draws_its_plan(self, services, graph):
        svcs, _ = services
        plan = plan_graph(graph, bits=BITS, fx=FX)
        xs, ws, parties = random_model(graph, np.random.default_rng(len(graph.trace)))
        before = svcs[0].session_draw_counts()

        def go(party):
            x_sh, w_sh = parties[party]
            plan.prefill(svcs[party], timeout=240.0)
            return run_online(
                plan, svcs[party].session("sweep"), w_sh, x_sh,
                np.random.default_rng(party),
            )[0]

        z0, z1 = run_both(lambda: go(0), lambda: go(1), ctx=errors(svcs))
        assert np.array_equal((z0 + z1) & MASK, oracle(graph, xs[0], ws))
        after = svcs[0].session_draw_counts()
        for kind, count in plan.pool_targets().items():
            assert after.get(kind, 0) - before.get(kind, 0) == count, kind
