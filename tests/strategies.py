"""Hypothesis strategies shared by the property tests.

One place for the generators later property tests compose (graph
shapes, data-plane kernel inputs and stream partitions today; fault
schedules and pool op sequences belong here too) instead of
re-declaring them per test file.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from repro.crypto import blocks
from repro.lpn.matrix import LpnMatrix
from repro.ppml.layers import Activation, Graph, Linear, Rescale


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


class StreamStrategies:
    """Strategies over a pool's absolute-index production stream."""

    @staticmethod
    def partitions(lo: int, hi: int, max_cuts: int = 8) -> st.SearchStrategy[list]:
        """Consecutive ``(lo, hi)`` segments covering ``[lo, hi)`` -- the
        batches a shard fleet lands a stream in.  Compose with
        ``st.permutations`` for an arrival order."""
        if hi - lo <= 1:
            return st.just([(lo, hi)])
        cuts = st.sets(st.integers(lo + 1, hi - 1), max_size=max_cuts).map(sorted)
        return cuts.map(lambda c: list(zip([lo] + c, c + [hi])))


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


#: A small stand-in for ``repro.crypto.aes.CHUNK_BLOCKS`` (tests patch it
#: in) and the batch sizes that sit on and around its boundaries.
AES_TEST_CHUNK = 8
AES_CHUNK_EDGE_SIZES = (
    0, 1, 2, AES_TEST_CHUNK - 1, AES_TEST_CHUNK, AES_TEST_CHUNK + 1, 2 * AES_TEST_CHUNK + 3
)


class KernelStrategies:
    """Inputs for the data-plane kernels (LPN gather-XOR, ChaCha core,
    fixed-key AES / CRHF)."""

    @staticmethod
    def block_arrays(sizes) -> st.SearchStrategy[np.ndarray]:
        """(n, 2) uint64 block arrays, n from ``sizes`` (0 allowed):
        contiguous, the tail of a longer array or every second row."""

        @st.composite
        def build(draw):
            n = draw(st.sampled_from(sizes))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            return _laid_out(draw, lambda rows: blocks.random_blocks(rows, rng), n)

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
