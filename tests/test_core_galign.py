"""Integration tests for the GAlign facade: end-to-end alignment quality,
ablation variants, and the unsupervised contract."""

import numpy as np
import pytest

from repro.core import GAlign, GAlignConfig
from repro.graphs import generators, noisy_copy_pair
from repro.metrics import evaluate_alignment, success_at


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(7)
    graph = generators.barabasi_albert(
        80, 2, rng, feature_dim=10, feature_kind="degree"
    )
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.08)


def fast_config(**kwargs):
    defaults = dict(epochs=25, embedding_dim=24, refinement_iterations=6, seed=3)
    defaults.update(kwargs)
    return GAlignConfig(**defaults)


class TestEndToEnd:
    def test_high_accuracy_on_low_noise_pair(self, pair):
        result = GAlign(fast_config()).align(pair)
        assert success_at(result.scores, pair.groundtruth, 1) > 0.5

    def test_beats_random_by_wide_margin(self, pair):
        rng = np.random.default_rng(0)
        random_scores = rng.random(
            (pair.source.num_nodes, pair.target.num_nodes)
        )
        random_report = evaluate_alignment(random_scores, pair.groundtruth)
        galign_report = evaluate_alignment(
            GAlign(fast_config()).align(pair).scores, pair.groundtruth
        )
        assert galign_report.map > 5 * random_report.map

    def test_result_metadata(self, pair):
        result = GAlign(fast_config()).align(pair)
        assert result.method == "GAlign"
        assert result.elapsed_seconds > 0.0

    def test_deterministic_given_seed(self, pair):
        a = GAlign(fast_config(seed=11)).align(pair).scores
        b = GAlign(fast_config(seed=11)).align(pair).scores
        np.testing.assert_allclose(a, b)

    def test_ignores_supervision(self, pair):
        # R3: passing supervision must not change the unsupervised output.
        method = GAlign(fast_config(seed=5))
        with_supervision = method.align(pair, supervision={0: 0}).scores
        without = GAlign(fast_config(seed=5)).align(pair).scores
        np.testing.assert_allclose(with_supervision, without)

    def test_training_log_populated(self, pair):
        method = GAlign(fast_config())
        method.align(pair)
        assert method.training_log is not None
        assert len(method.training_log.total) == 25
        assert method.refinement_log is not None

    def test_loss_decreases(self, pair):
        method = GAlign(fast_config(epochs=40))
        method.align(pair)
        losses = method.training_log.total
        assert losses[-1] < losses[0]


class TestAblations:
    def test_galign1_no_augmentation(self, pair):
        method = GAlign(fast_config(use_augmentation=False))
        result = method.align(pair)
        # Adaptivity loss never computed.
        assert all(a == 0.0 for a in method.training_log.adaptivity)
        assert result.scores.shape == (80, 80)

    def test_galign2_no_refinement(self, pair):
        method = GAlign(fast_config(use_refinement=False))
        result = method.align(pair)
        assert method.refinement_log is None
        assert result.scores.shape == (80, 80)

    def test_galign3_last_layer_only(self, pair):
        full = GAlign(fast_config(seed=2)).align(pair)
        last_only = GAlign(
            fast_config(seed=2, multi_order=False, use_refinement=False)
        ).align(pair)
        assert not np.allclose(full.scores, last_only.scores)

    def test_weight_sharing_ablation_runs(self, pair):
        method = GAlign(fast_config(share_weights=False, use_refinement=False))
        result = method.align(pair)
        assert method.model is not method.target_model
        assert result.scores.shape == (80, 80)

    def test_multi_order_beats_last_layer(self, pair):
        # The paper's core claim (Table IV: GAlign vs GAlign-3).
        full = GAlign(fast_config(seed=4)).align(pair)
        last = GAlign(fast_config(seed=4, multi_order=False)).align(pair)
        s_full = success_at(full.scores, pair.groundtruth, 1)
        s_last = success_at(last.scores, pair.groundtruth, 1)
        assert s_full >= s_last


class TestInputValidation:
    def test_rejects_mismatched_attribute_spaces(self, rng):
        g1 = generators.erdos_renyi(20, 0.2, rng, feature_dim=4)
        g2 = generators.erdos_renyi(20, 0.2, rng, feature_dim=6)
        from repro.graphs import AlignmentPair

        pair = AlignmentPair(g1, g2, {0: 0})
        with pytest.raises(ValueError):
            GAlign(fast_config()).align(pair)


class TestGAlign3UnderRefinement:
    def test_refined_last_layer_scores(self, pair):
        # GAlign-3 with refinement on: refinement runs, but the returned
        # scores are rebuilt from the final layer only.
        method = GAlign(fast_config(multi_order=False, use_refinement=True))
        result = method.align(pair)
        assert method.refinement_log is not None
        source_last = method.model.embed(pair.source)[-1]
        target_last = method.target_model.embed(pair.target)[-1]
        np.testing.assert_allclose(
            result.scores, source_last @ target_last.T, rtol=1e-10
        )

