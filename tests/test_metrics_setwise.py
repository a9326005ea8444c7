"""Tests for set-valued (one-to-many) metrics."""

import numpy as np
import pytest

from repro.core import AnchorLink, one_to_many
from repro.metrics import evaluate_link_sets


class TestEvaluateLinkSets:
    def test_perfect_single_links(self):
        predicted = {0: [0], 1: [1]}
        report = evaluate_link_sets(predicted, {0: 0, 1: 1})
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.source_coverage == 1.0

    def test_recall_grows_with_set_size(self):
        narrow = {0: [5]}           # miss
        wide = {0: [5, 0]}          # contains truth
        truth = {0: 0}
        assert evaluate_link_sets(narrow, truth).recall == 0.0
        assert evaluate_link_sets(wide, truth).recall == 1.0

    def test_precision_penalizes_wide_sets(self):
        wide = {0: [0, 5, 6, 7]}
        report = evaluate_link_sets(wide, {0: 0})
        assert report.precision == pytest.approx(0.25)

    def test_accepts_anchor_links_and_tuples(self):
        predicted = {
            0: [AnchorLink(0, 0, 0.9)],
            1: [(1, 0.8)],
            2: [2],
        }
        report = evaluate_link_sets(predicted, {0: 0, 1: 1, 2: 2})
        assert report.recall == 1.0

    def test_empty_sets_counted_in_coverage(self):
        predicted = {0: [0], 1: []}
        report = evaluate_link_sets(predicted, {0: 0, 1: 1})
        assert report.source_coverage == pytest.approx(0.5)

    def test_empty_groundtruth_rejected(self):
        with pytest.raises(ValueError):
            evaluate_link_sets({0: [0]}, {})

    def test_zero_predictions_zero_f1(self):
        report = evaluate_link_sets({0: []}, {0: 0})
        assert report.f1 == 0.0

    def test_str(self):
        report = evaluate_link_sets({0: [0]}, {0: 0})
        assert "P=1.0000" in str(report)


class TestIntegrationWithInstantiation:
    def test_one_to_many_pipeline(self, rng):
        scores = np.eye(8) * 0.9 + rng.random((8, 8)) * 0.05
        truth = {i: i for i in range(8)}
        links = one_to_many(scores, max_targets=3)
        report = evaluate_link_sets(links, truth)
        assert report.recall == 1.0
        assert report.precision >= 1.0 / 3
