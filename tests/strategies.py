"""Hypothesis strategies shared by the property tests.

One place for the generators later property tests compose (graph
shapes, data-plane kernel inputs and hostile wire
frames today; fault schedules and pool op sequences belong here too)
instead of re-declaring them per test file.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st
from parties import frame

from repro.crypto import blocks
from repro.crypto.group import DEFAULT_GROUP
from repro.lpn.matrix import LpnMatrix
from repro.ppml.layers import Activation, Graph, Linear, Rescale


def invalid_points() -> dict:
    """Encodings that name no point of the P-256 group, by name: the
    SEC1 point at infinity (one 0x00 byte, and zero-padded to the 33 of
    a compressed point), a valid point under prefix 0x00, 0x04 or 0x05,
    x = p and x = 2^256 - 1 (x >= p), and the smallest x with no square
    root of x^3 + ax + b, found here rather than written down."""
    g = DEFAULT_GROUP
    x_bytes = g.encode([g.generator])[1:]
    no_root = next(
        x for x in range(g.p) if pow(x**3 + g.a * x + g.b, (g.p - 1) // 2, g.p) == g.p - 1
    )
    return {
        "infinity": b"\x00",
        "infinity-padded": bytes(33),
        "prefix-00": b"\x00" + x_bytes,
        "prefix-04": b"\x04" + x_bytes,
        "prefix-05": b"\x05" + x_bytes,
        "x-is-p": b"\x02" + g.p.to_bytes(32, "big"),
        "x-max": b"\x03" + (2**256 - 1).to_bytes(32, "big"),
        "no-square-root": b"\x02" + no_root.to_bytes(32, "big"),
    }


class GraphStrategies:
    """Strategies for model graphs the online executor can run."""

    @staticmethod
    def mlp_graphs(max_linear: int = 3, max_dim: int = 8) -> st.SearchStrategy[Graph]:
        """MLPs of 1..max_linear Linear layers, each optionally followed
        by a Rescale and then optionally by a ReLU; every dim <= max_dim.

        Returns:
            Hypothesis strategy that generates traced :class:`Graph` objects.
        """

        @st.composite
        def build(draw):
            dim = st.integers(min_value=1, max_value=max_dim)
            m, k = draw(dim), draw(dim)
            outs = draw(st.lists(dim, min_size=1, max_size=max_linear))
            graph = Graph("prop-mlp", (m, k))
            for out in outs:
                graph.add(Linear(out))
                if draw(st.booleans()):
                    graph.add(Rescale())
                if draw(st.booleans()):
                    graph.add(Activation("relu"))
            return graph

        return build()


class VerbStrategies:
    """Strategies over the online verbs a service session serves."""

    @staticmethod
    def shapes(verb: str, max_elements: int = 8, max_dim: int = 4) -> st.SearchStrategy[tuple]:
        """The size of one ``<verb>_via_service`` call: ``(m, k, n)`` for
        the matmul verbs, ``(n,)`` shared elements for the elementwise
        ones -- small, because a live service produces each example's
        demand."""
        if verb.startswith("matmul"):
            return st.tuples(*[st.integers(1, max_dim)] * 3)
        return st.tuples(st.integers(1, max_elements))


#: Frames that are not a JSON object at all: bad UTF-8 (bare, and
#: inside a string), not JSON, nesting past the parser's recursion
#: limit, and JSON that is not an object.
_NOT_AN_OBJECT = (
    b"\xff\xfe\xfd", b'{"op": "\xc3"}', b"", b"{not json", b"[" * 100_000,
    b"[]", b'"op"', b"17", b"null",
)
_INT = st.integers(0, (1 << 63) - 1)
_TEXT = st.text(max_size=12)


def _values(spec) -> st.SearchStrategy:
    """Values a control-message field of ``spec`` accepts."""
    if spec is int:
        return _INT
    if spec is str:
        return _TEXT
    if spec is dict:
        scalars = st.one_of(_INT, _TEXT, st.booleans(), st.none())
        return st.dictionaries(_TEXT, scalars, max_size=4)
    if isinstance(spec, list):
        return st.lists(_values(spec[0]), max_size=4)
    ((key, item),) = spec.items()
    return st.dictionaries(_values(key), _values(item), max_size=4)


def _bad_values(spec) -> list:
    """Values a field of ``spec`` refuses: a wrong type, a negative int,
    ``true`` or 2^63 where an int belongs, a list holding a string, a
    dict holding a float."""
    if spec is int:
        return ["7", -1, True, 1 << 63, 1.5, None, [1]]
    if spec is str:
        return [1, None, ["a"], True]
    if spec is dict:
        return [[], "x", 5, None]
    if isinstance(spec, list):
        return ["x", {"a": 1}, ["x"], [-1], [True], [1 << 63], [1.5]]
    return [[1], 5, {"a": 1.5}, {"a": -1}, {"a": True}, {"a": "x"}, {"a": 1 << 63}]


class WireStrategies:
    """Frames a peer can send for a declared ``(n, bits)`` lane shape,
    built from :func:`parties.frame` rather than the codec under test,
    and control messages for a declared schema, built with :mod:`json`."""

    @staticmethod
    def shapes(max_n: int = 64) -> st.SearchStrategy[tuple]:
        """``(n, bits)`` with 0 <= n <= max_n and every lane width 1..64."""
        return st.tuples(st.integers(0, max_n), st.integers(1, 64))

    @staticmethod
    def lanes(n: int, bits: int) -> st.SearchStrategy[np.ndarray]:
        """``(n,)`` uint64 values below ``2^bits``."""
        return st.lists(st.integers(0, (1 << bits) - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.uint64)
        )

    @staticmethod
    def bad_frames(n: int, bits: int) -> st.SearchStrategy[bytes]:
        """Frames whose length or count differs from ``n`` lanes of
        ``bits``: truncated, extended and -- for 1-bit lanes, the only
        frames that carry a count -- a count with one bit flipped or a
        count of 2^63 in front of an honest-length body."""
        honest = frame(n, bits)

        def counted(count: int) -> bytes:
            return count.to_bytes(8, "little") + honest[8:]

        extended = st.binary(min_size=1, max_size=16).map(lambda tail: honest + tail)
        bad = [extended]
        if honest:
            bad.append(st.integers(0, len(honest) - 1).map(lambda k: honest[:k]))
        if bits == 1:
            bad.append(st.integers(0, 63).map(lambda i: counted(n ^ (1 << i))))
            bad.append(st.just(counted(1 << 63)))
        return st.one_of(bad)

    @staticmethod
    def cold_start_inbound(n: int) -> st.SearchStrategy[list]:
        """What the Delta-holder of a bootstrapped cold start
        (``base_cot_send(channel, n, delta, seed_cots)``) receives,
        in order -- the seed-OT reply (two frames of 128 blocks), the
        IKNP ``n`` header (one 64-bit lane) and the 128 x ceil(n/8)-byte
        correction matrix -- with exactly one frame truncated, extended
        or carrying a wrong count: a reply of 127 / 129 blocks, a header
        naming another ``n`` (one bit flipped, or 2^63), a matrix of
        one byte column too few or too many."""
        kappa, nbytes = 128, (n + 7) // 8
        honest = [
            bytes(16 * kappa), bytes(16 * kappa), n.to_bytes(8, "little"), bytes(kappa * nbytes)
        ]
        wrong_counts = [
            [bytes(16 * (kappa - 1)), bytes(16 * (kappa + 1))],
            [bytes(16 * (kappa - 1)), bytes(16 * (kappa + 1))],
            [(n ^ (1 << i)).to_bytes(8, "little") for i in range(64)]
            + [(1 << 63).to_bytes(8, "little")],
            [bytes(kappa * (nbytes - 1)), bytes(kappa * (nbytes + 1))],
        ]

        @st.composite
        def build(draw):
            at = draw(st.integers(0, len(honest) - 1))
            good = honest[at]
            bad = draw(
                st.one_of(
                    st.integers(0, len(good) - 1).map(lambda k: good[:k]),
                    st.binary(min_size=1, max_size=16).map(lambda tail: good + tail),
                    st.sampled_from(wrong_counts[at]),
                )
            )
            return honest[:at] + [bad] + honest[at + 1 :]

        return build()

    @staticmethod
    def pkc_inbound(n: int) -> st.SearchStrategy[tuple]:
        """``(role, frames)``: what one role of ``n`` PKC base OTs
        receives, in order, with exactly one frame truncated, extended or
        carrying a wrong value.  The ``"sender"`` (``base_ot_send``)
        receives the element blob (``n`` 33-byte compressed points, all
        the generator here); the ``"receiver"`` (``base_ot_receive``)
        the ``n`` header (one 64-bit lane), the point ``A`` and the
        payload of ``2n`` blocks.  Wrong values: a header naming another
        ``n`` (one bit flipped, or 2^63) or one element replaced by an
        :func:`invalid_points` encoding."""
        width = DEFAULT_GROUP.width
        point = DEFAULT_GROUP.encode([DEFAULT_GROUP.generator])
        bad_points = list(invalid_points().values())

        def with_element(blob: bytes, i: int, data: bytes) -> bytes:
            return blob[: i * width] + data + blob[(i + 1) * width :]

        blob = point * n
        honest = {
            "sender": [blob],
            "receiver": [n.to_bytes(8, "little"), point, bytes(32 * n)],
        }
        wrong_values = {
            "sender": [[with_element(blob, i, x) for i in range(n) for x in bad_points]],
            "receiver": [
                [(n ^ (1 << i)).to_bytes(8, "little") for i in range(64)]
                + [(1 << 63).to_bytes(8, "little")],
                bad_points,
                [],
            ],
        }

        @st.composite
        def build(draw):
            role = draw(st.sampled_from(sorted(honest)))
            frames = honest[role]
            at = draw(st.integers(0, len(frames) - 1))
            good = frames[at]
            bad = [
                st.integers(0, len(good) - 1).map(lambda k: good[:k]),
                st.binary(min_size=1, max_size=16).map(lambda tail: good + tail),
            ]
            if wrong_values[role][at]:
                bad.append(st.sampled_from(wrong_values[role][at]))
            return role, frames[:at] + [draw(st.one_of(bad))] + frames[at + 1 :]

        return build()

    @staticmethod
    def messages(schema: dict) -> st.SearchStrategy[tuple]:
        """``(op, fields)`` of a message ``schema`` (``op -> {field:
        spec}``) accepts."""
        return st.sampled_from(sorted(schema)).flatmap(
            lambda op: st.fixed_dictionaries(
                {name: _values(spec) for name, spec in schema[op].items()}
            ).map(lambda fields: (op, fields))
        )

    @staticmethod
    def bad_messages(schema: dict) -> st.SearchStrategy[bytes]:
        """Frames ``schema`` refuses: not a UTF-8 JSON object, an unknown
        or missing op, a missing or extra field, or one field holding a
        value outside its spec (see :func:`_bad_values`)."""

        def dump(msg) -> bytes:
            return json.dumps(msg).encode()

        @st.composite
        def mutated(draw):
            op, fields = draw(WireStrategies.messages(schema))
            fields = dict(fields)
            moves = ["extra"] + ["missing", "value"] * bool(fields)
            move = draw(st.sampled_from(moves))
            if move == "extra":
                fields[draw(_TEXT.filter(lambda t: t not in fields and t != "op"))] = 0
            else:
                name = draw(st.sampled_from(sorted(fields)))
                if move == "missing":
                    del fields[name]
                else:
                    fields[name] = draw(st.sampled_from(_bad_values(schema[op][name])))
            return dump({"op": op, **fields})

        unknown_op = st.one_of(
            _TEXT.filter(lambda t: t not in schema), st.none(), _INT, st.just(["STOP"])
        ).map(lambda op: dump({"op": op}))
        return st.one_of(
            st.sampled_from(_NOT_AN_OBJECT), unknown_op, st.just(dump({})), mutated()
        )


class EncodeCase(NamedTuple):
    """One LPN encode: the matrix, both kernels' inputs and the block
    and bit addends (``bits`` / ``addend_bits`` share the layouts)."""

    matrix: LpnMatrix
    vec: np.ndarray
    addend: np.ndarray
    bits: np.ndarray
    addend_bits: np.ndarray


def _laid_out(draw, make, rows: int) -> np.ndarray:
    """``make(rows)`` as drawn: contiguous, the tail of a longer array
    (``z[k:]``, how Ferret carries its LPN state) or every second row."""
    layout = draw(st.sampled_from(("contiguous", "tail", "strided")))
    if layout == "tail":
        return make(rows + 3)[3:]
    if layout == "strided":
        return make(2 * rows)[::2]
    return make(rows)


#: Batch sizes for the AES / CRHF kernels: empty, one block, a few, and
#: up to a few thousand.
AES_SIZES = (0, 1, 2, 3, 17, 64, 255, 1024, 3001)


class KernelStrategies:
    """Inputs for the data-plane kernels (LPN gather-XOR, ChaCha core,
    fixed-key AES / CRHF)."""

    @staticmethod
    def block_arrays(sizes) -> st.SearchStrategy[np.ndarray]:
        """(n, 2) uint64 block arrays, n from ``sizes`` (0 allowed):
        contiguous, the tail of a longer array or every second row, any
        of them possibly as a Fortran-order copy or read-only."""

        @st.composite
        def build(draw):
            n = draw(st.sampled_from(sizes))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            x = _laid_out(draw, lambda rows: blocks.random_blocks(rows, rng), n)
            if draw(st.booleans()):
                x = np.asfortranarray(x)
            if draw(st.booleans()):
                x.setflags(write=False)
            return x

        return build()

    @staticmethod
    def lpn_encode_cases(
        sizes, localities=(1, 10), max_k: int = 40
    ) -> st.SearchStrategy[EncodeCase]:
        """Encodes with n from ``sizes`` (0 allowed), d from
        ``localities``, 1 <= k <= max_k, the index array handed to
        :class:`LpnMatrix` as int32 or int64, and every vector either
        contiguous or a non-contiguous view.
        """

        @st.composite
        def build(draw):
            n = draw(st.sampled_from(sizes))
            d = draw(st.sampled_from(localities))
            k = draw(st.integers(min_value=1, max_value=max_k))
            index_dtype = draw(st.sampled_from((np.int32, np.int64)))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            matrix = LpnMatrix(rng.integers(0, k, size=(n, d), dtype=index_dtype), k)

            def some_blocks(rows):
                return blocks.random_blocks(rows, rng)

            def some_bits(rows):
                return rng.integers(0, 2, rows, dtype=np.uint8)

            return EncodeCase(
                matrix,
                _laid_out(draw, some_blocks, k),
                _laid_out(draw, some_blocks, n),
                _laid_out(draw, some_bits, k),
                _laid_out(draw, some_bits, n),
            )

        return build()

    @staticmethod
    def chacha_states(sizes) -> st.SearchStrategy[np.ndarray]:
        """(n, 16) uint32 state batches, n from ``sizes``: contiguous, a
        row-strided view, or the 16 middle columns of a wider array."""

        @st.composite
        def build(draw):
            n = draw(st.sampled_from(sizes))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            layout = draw(st.sampled_from(("contiguous", "rows", "columns")))

            def states(rows, width=16):
                return rng.integers(0, 1 << 32, size=(rows, width), dtype=np.uint32)

            if layout == "rows":
                return states(2 * n)[::2]
            if layout == "columns":
                return states(n, 20)[:, 2:18]
            return states(n)

        return build()


#: Ring widths the Gilboa property tests cover: both edges of every
#: lane width (1 / 2 / 4 / 8 bytes), a 1-bit ring and odd widths whose
#: pads need masking.
GILBOA_BITS = (1, 2, 8, 12, 13, 16, 31, 32, 33, 64)


def lanes_per_hash(bits: int) -> int:
    """Ring pads one 128-bit hash output yields: 16 / lane bytes."""
    return 16 // next(b for b in (1, 2, 4, 8) if 8 * b >= bits)


def _pad_widths(bits: int) -> st.SearchStrategy[int]:
    """Payload widths one short of, equal to and one past a hash's lanes."""
    lanes = lanes_per_hash(bits)
    return st.sampled_from((lanes - 1, lanes, lanes + 1))


class GilboaCase(NamedTuple):
    """One matrix triple: its shape, ring, sending party and row block."""

    dims: tuple
    bits: int
    ot_sender: int
    chunk_rows: int
    seed: int


class GilboaStrategies:
    """Inputs for Gilboa multiplication and the matrix triples over it."""

    @staticmethod
    def primitive_cases() -> st.SearchStrategy[tuple]:
        """``(bits, width, rows, chunk_rows, seed)`` of one Gilboa run:
        bits from :data:`GILBOA_BITS`, a width of lanes-per-hash -1 / +0 /
        +1, 0..40 COT rows and any row block up to one past the batch."""

        @st.composite
        def build(draw):
            bits = draw(st.sampled_from(GILBOA_BITS))
            rows = draw(st.integers(0, 40))
            return (
                bits,
                draw(_pad_widths(bits)),
                rows,
                draw(st.integers(1, rows + 1)),
                draw(st.integers(0, 2**32 - 1)),
            )

        return build()

    @staticmethod
    def matrix_cases(max_k: int = 3) -> st.SearchStrategy[GilboaCase]:
        """Matrix triples whose activation width n and weight width m
        are each lanes-per-hash -1 / +0 / +1, with 1 <= k <= max_k, either
        ``ot_sender`` and a row block that divides none of ``k*bits``,
        ``n*bits`` and ``bits`` (so chunks cut reduction groups)."""

        @st.composite
        def build(draw):
            bits = draw(st.sampled_from(GILBOA_BITS))
            m, n = draw(_pad_widths(bits)), draw(_pad_widths(bits))
            k = draw(st.integers(1, max_k))
            rows = (m + n) * k * bits
            chunk_rows = draw(
                st.integers(2, rows + 1).filter(
                    lambda c: (k * bits) % c and (n * bits) % c and bits % c
                )
            )
            return GilboaCase(
                (m, k, n), bits, draw(st.sampled_from((0, 1))), chunk_rows,
                draw(st.integers(0, 2**32 - 1)),
            )

        return build()
