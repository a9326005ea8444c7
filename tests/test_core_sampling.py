"""Tests for the sampled consistency loss and large-graph trainer."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    GAlign,
    GAlignConfig,
    GAlignTrainer,
    aggregate_alignment,
    layerwise_alignment_matrices,
    sampled_consistency_loss,
)
from repro.core.model import MultiOrderGCN
from repro.graphs import generators, noisy_copy_pair, propagation_matrix
from repro.metrics import success_at


def fast_config(**kwargs):
    defaults = dict(epochs=25, embedding_dim=16, refinement_iterations=2,
                    num_augmentations=1, seed=0)
    defaults.update(kwargs)
    return GAlignConfig(**defaults)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(71)
    graph = generators.barabasi_albert(70, 2, rng, feature_dim=8,
                                       feature_kind="degree")
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)


class TestSampledConsistencyLoss:
    def test_positive_scalar(self, pair):
        config = fast_config()
        model = MultiOrderGCN(pair.source.num_features, config,
                              np.random.default_rng(0))
        prop = propagation_matrix(pair.source)
        embeddings = model.forward(pair.source, prop)
        loss = sampled_consistency_loss(
            prop, embeddings, np.arange(10), num_negatives=3,
            rng=np.random.default_rng(0),
        )
        assert loss.data.size == 1
        assert float(loss.data) > 0.0

    def test_gradient_flows(self, pair):
        config = fast_config(num_layers=1)
        model = MultiOrderGCN(pair.source.num_features, config,
                              np.random.default_rng(0))
        prop = propagation_matrix(pair.source)
        embeddings = model.forward(pair.source, prop)
        loss = sampled_consistency_loss(
            prop, embeddings, np.arange(10), 3, np.random.default_rng(0)
        )
        loss.backward()
        assert model.weights[0].grad is not None
        assert np.any(model.weights[0].grad != 0.0)

    def test_full_batch_zero_negatives_deterministic(self, pair):
        # Full node batch with no negatives covers exactly the non-zeros of
        # C — the loss then has no sampling randomness.
        config = fast_config()
        model = MultiOrderGCN(pair.source.num_features, config,
                              np.random.default_rng(0))
        prop = propagation_matrix(pair.source)
        embeddings = model.forward(pair.source, prop)
        all_nodes = np.arange(pair.source.num_nodes)
        a = sampled_consistency_loss(prop, embeddings, all_nodes, 0,
                                     np.random.default_rng(1))
        b = sampled_consistency_loss(prop, embeddings, all_nodes, 0,
                                     np.random.default_rng(2))
        assert float(a.data) == pytest.approx(float(b.data))


class TestSampledTrainer:
    def test_loss_decreases(self, pair):
        trainer = GAlignTrainer(
            replace(fast_config(), trainer="sampled", sample_batch_size=32),
            np.random.default_rng(0),
        )
        _, log = trainer.train(pair)
        assert log.total[-1] < log.total[0]

    def test_alignment_quality_close_to_dense(self, pair):
        config = fast_config(epochs=40)
        dense_scores = GAlign(config).align(pair).scores
        dense_s1 = success_at(dense_scores, pair.groundtruth, 1)

        trainer = GAlignTrainer(
            replace(config, trainer="sampled", sample_batch_size=64,
                    sample_negatives=10),
            np.random.default_rng(0),
        )
        model, _ = trainer.train(pair)
        matrices = layerwise_alignment_matrices(
            model.embed(pair.source), model.embed(pair.target)
        )
        sampled_scores = aggregate_alignment(
            matrices, config.resolved_layer_weights()
        )
        sampled_s1 = success_at(sampled_scores, pair.groundtruth, 1)
        assert sampled_s1 >= dense_s1 - 0.35  # same ballpark, cheaper step

    def test_validates_params(self, pair):
        with pytest.raises(ValueError, match="sample_batch_size"):
            fast_config(trainer="sampled", sample_batch_size=0)
        with pytest.raises(ValueError, match="sample_negatives"):
            fast_config(trainer="sampled", sample_negatives=-1)

    def test_rejects_mismatched_features(self, rng):
        from repro.graphs import AlignmentPair

        g1 = generators.erdos_renyi(15, 0.3, rng, feature_dim=3)
        g2 = generators.erdos_renyi(15, 0.3, rng, feature_dim=4)
        bad_pair = AlignmentPair(g1, g2, {0: 0})
        trainer = GAlignTrainer(replace(fast_config(), trainer="sampled"),
                                rng)
        with pytest.raises(ValueError):
            trainer.train(bad_pair)
