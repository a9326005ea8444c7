"""Tests for alignment instantiation (Eq 11-12) and refinement (Alg 2)."""

import numpy as np
import pytest

from repro.core import (
    AlignmentRefiner,
    GAlignConfig,
    GAlignTrainer,
    aggregate_alignment,
    alignment_quality,
    find_stable_nodes,
    layerwise_alignment_matrices,
)
from repro.graphs import generators, noisy_copy_pair

from .refine_oracle import as_embeddings


class TestLayerwiseMatrices:
    def test_shapes(self, rng):
        source = [rng.normal(size=(4, 3)), rng.normal(size=(4, 5))]
        target = [rng.normal(size=(6, 3)), rng.normal(size=(6, 5))]
        matrices = layerwise_alignment_matrices(source, target)
        assert all(m.shape == (4, 6) for m in matrices)

    def test_cosine_of_normalized_rows(self, rng):
        a = rng.normal(size=(3, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        matrices = layerwise_alignment_matrices([a], [a])
        np.testing.assert_allclose(np.diag(matrices[0]), 1.0, rtol=1e-10)

    def test_rejects_layer_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            layerwise_alignment_matrices([np.ones((2, 2))], [])

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            layerwise_alignment_matrices([np.ones((2, 3))], [np.ones((2, 4))])


class TestAggregate:
    def test_weighted_sum(self):
        m1, m2 = np.ones((2, 2)), 2 * np.ones((2, 2))
        out = aggregate_alignment([m1, m2], [0.25, 0.75])
        np.testing.assert_allclose(out, 0.25 + 1.5)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_alignment([np.ones((2, 2))], [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_alignment([], [])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_alignment([np.ones((2, 2)), np.ones((3, 3))], [0.5, 0.5])


class TestGreedyInstantiation:
    def test_quality(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert alignment_quality(scores) == pytest.approx(1.7)


class TestFindStableNodes:
    @staticmethod
    def stable(matrices, threshold):
        source, target = as_embeddings(matrices)
        weights = [1.0 / len(matrices)] * len(matrices)
        return find_stable_nodes(source, target, weights, threshold)[:2]

    def test_all_stable_when_consistent_and_confident(self):
        matrix = np.array([[0.99, 0.0], [0.0, 0.98]])
        sources, targets = self.stable([matrix, matrix], threshold=0.94)
        np.testing.assert_array_equal(sources, [0, 1])
        np.testing.assert_array_equal(targets, [0, 1])

    def test_inconsistent_argmax_excluded(self):
        m1 = np.array([[0.99, 0.0], [0.0, 0.99]])
        m2 = np.array([[0.0, 0.99], [0.0, 0.99]])  # row 0 flips argmax
        sources, _ = self.stable([m1, m2], threshold=0.9)
        np.testing.assert_array_equal(sources, [1])

    def test_low_confidence_excluded(self):
        m = np.array([[0.5, 0.0], [0.0, 0.99]])
        sources, _ = self.stable([m], threshold=0.94)
        np.testing.assert_array_equal(sources, [1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            find_stable_nodes([], [], [], threshold=0.9)


class TestRefiner:
    @pytest.fixture
    def trained(self, rng):
        graph = generators.barabasi_albert(60, 2, rng, feature_dim=8,
                                           feature_kind="degree")
        pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.1)
        config = GAlignConfig(epochs=20, embedding_dim=16,
                              refinement_iterations=8)
        model, _ = GAlignTrainer(config, rng).train(pair)
        return pair, model, config

    def test_refine_returns_valid_scores(self, trained):
        pair, model, config = trained
        scores, log = AlignmentRefiner(config).refine(pair, model)
        assert scores.shape == (pair.source.num_nodes, pair.target.num_nodes)
        assert len(log.quality) >= 1

    def test_best_quality_tracked(self, trained):
        pair, model, config = trained
        scores, log = AlignmentRefiner(config).refine(pair, model)
        assert alignment_quality(scores) == pytest.approx(log.best_quality)

    def test_refinement_never_worse_than_first_iteration(self, trained):
        pair, model, config = trained
        _, log = AlignmentRefiner(config).refine(pair, model)
        # Greedy keep-best guarantees monotone non-decreasing best quality.
        assert log.best_quality >= log.quality[0]
