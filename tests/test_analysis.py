"""Tests for t-SNE and embedding diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    EmbeddingDiagnostics,
    concatenate_orders,
    diagnose_embeddings,
    tsne,
)


class TestTSNE:
    def test_output_shape(self, rng):
        data = rng.normal(size=(25, 8))
        out = tsne(data, iterations=100, rng=rng)
        assert out.shape == (25, 2)
        assert np.all(np.isfinite(out))

    def test_separates_two_clusters(self, rng):
        cluster_a = rng.normal(size=(15, 6)) + 10.0
        cluster_b = rng.normal(size=(15, 6)) - 10.0
        data = np.vstack([cluster_a, cluster_b])
        out = tsne(data, iterations=300, perplexity=5.0, rng=rng)
        center_a = out[:15].mean(axis=0)
        center_b = out[15:].mean(axis=0)
        spread_a = np.linalg.norm(out[:15] - center_a, axis=1).mean()
        between = np.linalg.norm(center_a - center_b)
        assert between > 2 * spread_a

    def test_rejects_tiny_input(self, rng):
        with pytest.raises(ValueError):
            tsne(rng.normal(size=(2, 3)), rng=rng)

    def test_perplexity_auto_capped(self, rng):
        # perplexity >= n must not crash.
        out = tsne(rng.normal(size=(8, 3)), perplexity=50.0, iterations=50, rng=rng)
        assert out.shape == (8, 2)


class TestDiagnostics:
    def test_perfect_alignment_diagnostics(self, rng):
        embedding = rng.normal(size=(10, 6))
        report = diagnose_embeddings(embedding, embedding, {i: i for i in range(10)})
        assert report.anchor_similarity == pytest.approx(1.0)
        assert report.nearest_neighbor_accuracy == 1.0
        assert report.separation_margin > 0.0

    def test_random_alignment_low_margin(self, rng):
        a, b = rng.normal(size=(20, 6)), rng.normal(size=(20, 6))
        report = diagnose_embeddings(a, b, {i: i for i in range(20)})
        assert abs(report.separation_margin) < 0.5

    def test_rejects_empty_groundtruth(self, rng):
        with pytest.raises(ValueError):
            diagnose_embeddings(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), {})

    def test_str_contains_fields(self, rng):
        embedding = rng.normal(size=(5, 4))
        report = diagnose_embeddings(embedding, embedding, {0: 0})
        assert "margin=" in str(report)

    def test_concatenate_orders(self, rng):
        layers = [rng.normal(size=(6, 3)), rng.normal(size=(6, 5))]
        combined = concatenate_orders(layers)
        assert combined.shape == (6, 8)

    def test_concatenate_rejects_empty(self):
        with pytest.raises(ValueError):
            concatenate_orders([])
