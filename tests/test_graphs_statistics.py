"""Tests for graph/pair statistics."""

import numpy as np
import pytest

from repro.graphs import (
    generators,
    graph_statistics,
    noisy_copy_pair,
    pair_statistics,
)
from repro.graphs.statistics import _gini


class TestGini:
    def test_uniform_is_zero(self):
        assert _gini(np.full(50, 7.0)) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_near_one(self):
        values = np.zeros(100)
        values[0] = 100.0
        assert _gini(values) > 0.9

    def test_empty_and_zero_safe(self):
        assert _gini(np.array([])) == 0.0
        assert _gini(np.zeros(5)) == 0.0


class TestGraphStatistics:
    def test_basic_counts(self, tiny_graph):
        stats = graph_statistics(tiny_graph)
        assert stats.num_nodes == 5
        assert stats.num_edges == 5
        assert stats.num_features == 5
        assert stats.average_degree == pytest.approx(2.0)
        assert stats.max_degree == 3
        assert stats.connected_components == 1

    def test_binary_detection(self, tiny_graph, rng):
        assert graph_statistics(tiny_graph).attributes_binary
        real = tiny_graph.with_features(rng.normal(size=(5, 2)))
        assert not graph_statistics(real).attributes_binary

    def test_ba_higher_gini_than_regular(self, rng):
        ba = generators.barabasi_albert(200, 2, rng)
        ws = generators.watts_strogatz(200, 4, 0.05, rng)
        assert graph_statistics(ba).degree_gini > graph_statistics(ws).degree_gini

    def test_as_dict_and_str(self, tiny_graph):
        stats = graph_statistics(tiny_graph)
        assert "avg_degree" in stats.as_dict()
        assert "n=5" in str(stats)


class TestPairStatistics:
    def test_summary_keys(self, small_graph, rng):
        pair = noisy_copy_pair(small_graph, rng)
        summary = pair_statistics(pair)
        assert summary["anchors"] == small_graph.num_nodes
        assert summary["anchor_coverage_source"] == pytest.approx(1.0)
        assert summary["size_ratio"] == pytest.approx(1.0)
        assert summary["source"].num_nodes == small_graph.num_nodes
