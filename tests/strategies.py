"""Hypothesis strategies shared by the property tests.

One place for the generators later property tests compose (graph
shapes today; fault schedules, pool op sequences and stream partitions
belong here too) instead of re-declaring them per test file.
"""

from __future__ import annotations

from hypothesis import strategies as st

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
