"""Tests for the GCN propagation matrices (Eq 1 and Eq 15)."""

import numpy as np
import pytest

from repro.graphs import (
    AttributedGraph,
    propagation_matrix,
    weighted_propagation_matrix,
)


class TestPropagationMatrix:
    def test_matches_definition(self, tiny_graph):
        a_hat = tiny_graph.adjacency_with_self_loops().toarray()
        degrees = a_hat.sum(axis=1)
        expected = a_hat / np.sqrt(np.outer(degrees, degrees))
        np.testing.assert_allclose(
            propagation_matrix(tiny_graph).toarray(), expected, rtol=1e-12
        )

    def test_symmetric(self, small_graph):
        c = propagation_matrix(small_graph).toarray()
        np.testing.assert_allclose(c, c.T, rtol=1e-12)

    def test_spectral_radius_at_most_one(self, small_graph):
        c = propagation_matrix(small_graph).toarray()
        eigenvalues = np.linalg.eigvalsh(c)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9

    def test_isolated_node_safe(self):
        g = AttributedGraph.from_edges(3, [(0, 1)])  # node 2 isolated
        c = propagation_matrix(g).toarray()
        # Isolated node's self-loop normalizes to exactly 1.
        assert c[2, 2] == pytest.approx(1.0)


class TestWeightedPropagationMatrix:
    def test_uniform_influence_recovers_standard(self, small_graph):
        uniform = np.ones(small_graph.num_nodes)
        np.testing.assert_allclose(
            weighted_propagation_matrix(small_graph, uniform).toarray(),
            propagation_matrix(small_graph).toarray(),
            rtol=1e-12,
        )

    def test_higher_influence_amplifies_contribution(self, tiny_graph):
        influence = np.ones(5)
        influence[1] = 4.0  # stable node
        weighted = weighted_propagation_matrix(tiny_graph, influence).toarray()
        standard = propagation_matrix(tiny_graph).toarray()
        # Node 1's column shrinks in its own normalization but relative
        # contribution of OTHER nodes' rows through node 1 changes by 1/sqrt(4).
        assert weighted[0, 1] == pytest.approx(standard[0, 1] / 2.0)

    def test_rejects_wrong_length(self, tiny_graph):
        with pytest.raises(ValueError):
            weighted_propagation_matrix(tiny_graph, np.ones(3))

    def test_rejects_nonpositive(self, tiny_graph):
        with pytest.raises(ValueError):
            weighted_propagation_matrix(tiny_graph, np.zeros(5))
