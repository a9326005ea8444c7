"""Tests for the Alg 1 training loop and its weight-sharing mechanism."""

import tracemalloc

import numpy as np
import pytest

from repro.core import GAlignConfig, GAlignTrainer
from repro.core.trainer import TrainingLog
from repro.graphs import (
    AlignmentPair, allmovie_imdb_like, generators, noisy_copy_pair,
)


def config(**kwargs):
    defaults = dict(epochs=10, embedding_dim=12, num_augmentations=1, seed=0)
    defaults.update(kwargs)
    return GAlignConfig(**defaults)


@pytest.fixture
def pair(rng):
    graph = generators.barabasi_albert(40, 2, rng, feature_dim=6,
                                       feature_kind="degree")
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)


class TestTrainingLog:
    def test_record_and_final(self):
        log = TrainingLog()
        assert log.final_loss is None
        log.record(3.0, 2.0, 1.0)
        log.record(2.0, 1.5, 0.5)
        assert log.final_loss == 2.0
        assert log.consistency == [2.0, 1.5]
        assert log.adaptivity == [1.0, 0.5]


class TestTrainer:
    def test_loss_decreases(self, pair, rng):
        _, log = GAlignTrainer(config(epochs=30), rng).train(pair)
        assert log.total[-1] < log.total[0]

    def test_epoch_count_respected(self, pair, rng):
        _, log = GAlignTrainer(config(epochs=7), rng).train(pair)
        assert len(log.total) == 7

    def test_one_model_for_both_networks(self, pair, rng):
        model, _ = GAlignTrainer(config(), rng).train(pair)
        # The same weight tensors embed both networks — weight sharing.
        source_embeddings = model.embed(pair.source)
        target_embeddings = model.embed(pair.target)
        assert len(source_embeddings) == len(target_embeddings) == 3

    def test_augmentation_contributes_loss(self, pair, rng):
        _, log_with = GAlignTrainer(config(num_augmentations=2), rng).train(pair)
        assert all(a > 0.0 for a in log_with.adaptivity[:3])

        _, log_without = GAlignTrainer(
            config(use_augmentation=False), np.random.default_rng(0)
        ).train(pair)
        assert all(a == 0.0 for a in log_without.adaptivity)

    def test_train_single_network(self, pair, rng):
        model, log = GAlignTrainer(config(), rng).train_single(pair.source)
        assert len(log.total) == 10
        assert model.embed(pair.source)[1].shape == (40, 12)

    def test_rejects_mismatched_attribute_spaces(self, rng):
        g1 = generators.erdos_renyi(15, 0.3, rng, feature_dim=3)
        g2 = generators.erdos_renyi(15, 0.3, rng, feature_dim=4)
        bad = AlignmentPair(g1, g2, {0: 0})
        with pytest.raises(ValueError):
            GAlignTrainer(config(), rng).train(bad)

    def test_deterministic_with_same_rng_seed(self, pair):
        model_a, _ = GAlignTrainer(config(), np.random.default_rng(3)).train(pair)
        model_b, _ = GAlignTrainer(config(), np.random.default_rng(3)).train(pair)
        for wa, wb in zip(model_a.state_dict(), model_b.state_dict()):
            np.testing.assert_array_equal(wa, wb)

    def test_empty_network_list_raises_clear_error(self, rng):
        # Regression: _optimize with zero graphs used to fall through to
        # ``total.backward()`` with total=None and die with AttributeError.
        from repro.core import MultiOrderGCN

        trainer = GAlignTrainer(config(), rng)
        model = MultiOrderGCN(6, config(), rng)
        with pytest.raises(ValueError, match="no networks to train on"):
            trainer._optimize([], model)

    def test_gamma_one_ignores_adaptivity_in_total(self, pair, rng):
        # gamma=1: adaptivity still computed (logged) but zero-weighted.
        _, log = GAlignTrainer(config(gamma=1.0, epochs=3), rng).train(pair)
        # total == consistency when gamma == 1 (within float tolerance).
        for total, consistency in zip(log.total, log.consistency):
            assert total == pytest.approx(consistency, rel=1e-9)


class TestTrainingMemory:
    def test_capture_epoch_frees_used_gradients(self):
        # Two compiled epochs on the benchmark pair (601/571 nodes): the
        # eager capture epoch drops each graph node's gradient once its
        # backward has used it, and adopts first contributions without a
        # copy.  Holding every gradient to the end of the pass peaked at
        # ~115 MiB here; freeing them peaks at ~82 MiB.
        pair = allmovie_imdb_like(np.random.default_rng(20200420), scale=0.1)
        trainer = GAlignTrainer(
            GAlignConfig(seed=20200420, compile=True, epochs=2),
            np.random.default_rng(20200420),
        )
        tracemalloc.start()
        try:
            trainer.train(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, f"training peaked at {peak / 2**20:.1f} MiB"
