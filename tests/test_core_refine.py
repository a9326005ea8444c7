"""Regression tests for the refinement hot path (Alg 2).

Covers the Eq 14 per-pair influence accumulation (duplicated anchor
targets), the GAlign-3-under-refinement score source, the tie tolerance
of ``find_stable_nodes``, and the blockwise refinement against the dense
Alg 2 oracle (bitwise) and a memory bound.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    AlignmentRefiner,
    GAlign,
    GAlignConfig,
    GAlignTrainer,
    MultiOrderGCN,
    apply_influence_gain,
    find_stable_nodes,
)
from repro.graphs import AlignmentPair, AttributedGraph, generators, noisy_copy_pair
from repro.graphs.datasets import allmovie_imdb_like

from .refine_oracle import as_embeddings, dense_refine


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(7)
    graph = generators.barabasi_albert(
        60, 2, rng, feature_dim=8, feature_kind="degree"
    )
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.08)


class TestApplyInfluenceGain:
    def test_unique_nodes_single_gain(self):
        influence = apply_influence_gain(np.ones(4), np.array([0, 2]), 1.5)
        np.testing.assert_allclose(influence, [1.5, 1.0, 1.5, 1.0])

    def test_duplicated_nodes_accumulate_per_pair(self):
        # Eq 14: a target anchoring two stable sources is amplified twice.
        # The pre-fix fancy-indexed ``influence[nodes] *= gain`` collapsed
        # duplicates to a single application.
        influence = apply_influence_gain(np.ones(3), np.array([1, 1, 2]), 1.1)
        np.testing.assert_allclose(influence, [1.0, 1.1 ** 2, 1.1])

    def test_triplicates(self):
        influence = apply_influence_gain(np.ones(2), np.array([0, 0, 0]), 2.0)
        np.testing.assert_allclose(influence, [8.0, 1.0])


class _StubModel:
    """Duck-typed MultiOrderGCN returning fixed multi-order embeddings."""

    def __init__(self, embeddings):
        self._embeddings = embeddings

    def embed(self, graph, propagation=None, normalize=True):
        return [layer.copy() for layer in self._embeddings]


def _three_node_graph():
    return AttributedGraph.from_edges(3, [(0, 1), (1, 2)], np.eye(3))


class TestDuplicateTargetAccumulation:
    def test_refine_amplifies_shared_target_per_stable_pair(self):
        # Sources 0 and 1 both stably match target 0 (score 1.0 > λ);
        # source 2's best score stays below λ so it is not stable.
        source_layer = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        target_layer = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        source_model = _StubModel([source_layer, source_layer])
        target_model = _StubModel([target_layer, target_layer])
        pair = AlignmentPair(
            _three_node_graph(), _three_node_graph(), {}, name="stub"
        )
        config = GAlignConfig(num_layers=1, refinement_iterations=1)

        _, log = AlignmentRefiner(config).refine(pair, source_model, target_model)

        assert log.stable_sources == [2]
        assert log.stable_targets == [1]  # two sources share one target
        gain = config.influence_gain
        np.testing.assert_allclose(
            log.final_influence_source, [gain, gain, 1.0]
        )
        # Regression: the shared anchor target accumulates gain**2 (one
        # application per stable pair), not gain**1.
        np.testing.assert_allclose(
            log.final_influence_target, [gain ** 2, 1.0, 1.0]
        )


class TestRefinedLastLayerScores:
    def test_log_exposes_best_iteration_embeddings(self, pair):
        config = GAlignConfig(
            epochs=15, embedding_dim=16, refinement_iterations=4, seed=3
        )
        model, _ = GAlignTrainer(config, np.random.default_rng(3)).train(pair)
        scores, log = AlignmentRefiner(config).refine(pair, model)
        assert log.best_source_embeddings is not None
        assert log.best_target_embeddings is not None
        assert len(log.best_source_embeddings) == config.num_layers + 1
        # the returned matrix is the aggregate of exactly those embeddings
        weights = config.resolved_layer_weights()
        rebuilt = sum(
            w * (hs @ ht.T)
            for w, hs, ht in zip(
                weights, log.best_source_embeddings, log.best_target_embeddings
            )
        )
        np.testing.assert_allclose(scores, rebuilt, atol=1e-10)

    def test_galign3_uses_refined_embeddings(self, pair):
        # GAlign-3 under refinement: scores must come from the refiner's
        # best-iteration embeddings.  The pre-fix code re-embedded with the
        # default propagation matrix, discarding the refinement loop's work.
        config = GAlignConfig(
            epochs=15, embedding_dim=16, refinement_iterations=4,
            seed=3, multi_order=False,
        )
        method = GAlign(config)
        result = method.align(pair, rng=np.random.default_rng(3))
        log = method.refinement_log
        expected = log.best_source_embeddings[-1] @ log.best_target_embeddings[-1].T
        np.testing.assert_allclose(result.scores, expected)

    def test_galign3_consumes_refiner_embeddings_not_a_reembed(
        self, pair, monkeypatch
    ):
        # Hand GAlign a refiner whose best-iteration embeddings are NOT the
        # model's default-propagation embeddings: the returned scores must
        # be built from the refiner's embeddings.  The pre-fix code called
        # ``self._last_layer_scores(pair)`` (a default-propagation re-embed)
        # and would return something else entirely.
        import repro.core.galign as galign_module
        from repro.core import RefinementLog

        canned = {}

        class CannedRefiner:
            def __init__(self, config, registry=None):
                pass

            def refine(self, pair, source_model, target_model=None):
                rng = np.random.default_rng(99)
                log = RefinementLog()
                log.best_source_embeddings = [
                    rng.normal(size=(pair.source.num_nodes, 4))
                    for _ in range(3)
                ]
                log.best_target_embeddings = [
                    rng.normal(size=(pair.target.num_nodes, 4))
                    for _ in range(3)
                ]
                canned["log"] = log
                scores = rng.normal(
                    size=(pair.source.num_nodes, pair.target.num_nodes)
                )
                return scores, log

        monkeypatch.setattr(galign_module, "AlignmentRefiner", CannedRefiner)
        config = GAlignConfig(
            epochs=5, embedding_dim=16, seed=3, multi_order=False
        )
        method = GAlign(config)
        result = method.align(pair, rng=np.random.default_rng(3))
        log = canned["log"]
        expected = (
            log.best_source_embeddings[-1] @ log.best_target_embeddings[-1].T
        )
        np.testing.assert_allclose(result.scores, expected)
        default = (
            method.model.embed(pair.source)[-1]
            @ method.target_model.embed(pair.target)[-1].T
        )
        assert not np.allclose(result.scores, default)


class TestFindStableNodesTieTolerance:
    def test_tie_at_exact_tolerance_counts_as_argmax(self):
        tolerance = 1e-6
        # Layer 0 prefers column 0 by exactly the tolerance; the weighted
        # sum with layer 1 prefers column 1, the tied candidate.
        source, target = as_embeddings(
            [[[1.0, 1.0 - tolerance]], [[0.0, 1.0]]]
        )
        sources, targets, _, _ = find_stable_nodes(
            source, target, [0.5, 0.5], threshold=0.9,
            tie_tolerance=tolerance,
        )
        np.testing.assert_array_equal(sources, [0])
        np.testing.assert_array_equal(targets, [1])
        # shrink the tolerance below the gap and the tie no longer counts
        sources, _, _, _ = find_stable_nodes(
            source, target, [0.5, 0.5], threshold=0.9,
            tie_tolerance=tolerance / 2,
        )
        assert len(sources) == 0

    def test_all_unstable_input_returns_empty(self):
        matrix = np.array([[0.2, 0.1], [0.3, 0.4]])
        source, target = as_embeddings([matrix, matrix])
        sources, targets, _, _ = find_stable_nodes(
            source, target, [0.5, 0.5], threshold=0.94
        )
        assert len(sources) == 0 and len(targets) == 0

    def test_single_layer_with_reference(self):
        matrix = np.array([[0.99, 0.1], [0.2, 0.5]])
        source, target = as_embeddings([matrix])
        sources, targets, _, _ = find_stable_nodes(
            source, target, [1.0], threshold=0.94
        )
        np.testing.assert_array_equal(sources, [0])
        np.testing.assert_array_equal(targets, [0])


class TestDenseOracle:
    """``refine`` scans S in row blocks; the dense Alg 2 loop of
    ``refine_oracle`` holds every matrix.  Same embeddings, same bits."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_refine_is_bitwise_the_dense_loop(self, seed):
        pair = allmovie_imdb_like(np.random.default_rng(seed), scale=0.1)
        config = GAlignConfig(epochs=5, seed=seed)
        model, _ = GAlignTrainer(config, np.random.default_rng(seed)).train(
            pair
        )
        scores, log = AlignmentRefiner(config).refine(pair, model)
        (dense_scores, quality, stable_sources, stable_targets,
         influence_source, influence_target) = dense_refine(config, pair, model)
        assert len(quality) > 1  # the loop really iterated
        assert np.array_equal(scores, dense_scores)
        assert log.quality == quality
        assert log.stable_sources == stable_sources
        assert log.stable_targets == stable_targets
        assert np.array_equal(log.final_influence_source, influence_source)
        assert np.array_equal(log.final_influence_target, influence_target)


class TestRefineMemory:
    def test_iterations_hold_no_dense_layer_matrices(self):
        # 2004 x 1905: S is 29 MiB.  Holding the L+1 layer matrices, their
        # aggregate and its temporary (as ``dense_refine`` does) peaks near
        # 9 x S; the row-block scan holds the final S and one partial on
        # top of a few blocks.
        pair = allmovie_imdb_like(np.random.default_rng(1), scale=1 / 3)
        config = GAlignConfig(refinement_iterations=5)
        model = MultiOrderGCN(
            pair.source.num_features, config, np.random.default_rng(1)
        )
        s_bytes = pair.source.num_nodes * pair.target.num_nodes * 8
        tracemalloc.start()
        try:
            AlignmentRefiner(config).refine(pair, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * s_bytes, (
            f"refine peaked at {peak / s_bytes:.2f} x S"
        )
