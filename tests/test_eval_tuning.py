"""Tests for the hyper-parameter grid search."""

import numpy as np
import pytest

from repro.core import GAlignConfig
from repro.eval import grid_search
from repro.graphs import generators, noisy_copy_pair


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(17)
    graph = generators.barabasi_albert(40, 2, rng, feature_dim=6,
                                       feature_kind="degree")
    return noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)


FAST = GAlignConfig(epochs=8, embedding_dim=12, refinement_iterations=2, seed=0)


class TestGridSearch:
    def test_covers_product(self, pair):
        results = grid_search(
            pair,
            {"num_layers": [1, 2], "gamma": [0.5, 0.8]},
            base_config=FAST,
        )
        assert len(results) == 4
        seen = {tuple(sorted(r.overrides.items())) for r in results}
        assert len(seen) == 4

    def test_sorted_best_first(self, pair):
        results = grid_search(pair, {"num_layers": [1, 2]}, base_config=FAST)
        values = [r.metric_value for r in results]
        assert values == sorted(values, reverse=True)

    def test_custom_metric(self, pair):
        results = grid_search(
            pair, {"num_layers": [2]}, base_config=FAST, metric="MAP"
        )
        assert 0.0 <= results[0].metric_value <= 1.0

    def test_unknown_metric_rejected(self, pair):
        with pytest.raises(ValueError):
            grid_search(pair, {"num_layers": [2]}, base_config=FAST,
                        metric="F1")

    def test_empty_grid_rejected(self, pair):
        with pytest.raises(ValueError):
            grid_search(pair, {}, base_config=FAST)

    def test_result_str(self, pair):
        results = grid_search(pair, {"num_layers": [2]}, base_config=FAST)
        assert "num_layers=2" in str(results[0])


class TestDeterministicRanking:
    """Regression: ties on the target metric used to keep evaluation
    order, so the ranking depended on grid enumeration instead of being
    a pure function of the candidate set."""

    def test_ties_broken_by_canonical_overrides_key(self, pair):
        # max_recoveries never triggers on a healthy deterministic run,
        # so all three candidates score identically — a guaranteed tie.
        results = grid_search(
            pair, {"max_recoveries": [3, 1, 2]}, base_config=FAST
        )
        assert len({r.metric_value for r in results}) == 1
        assert [r.overrides["max_recoveries"] for r in results] == [1, 2, 3]

