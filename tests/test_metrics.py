"""Tests for ranking metrics (Eq 16-18) and matching rules."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    anchor_ranks,
    auc,
    evaluate_alignment,
    hungarian_matching,
    success_at,
    top1_matching,
)


@pytest.fixture
def perfect_scores():
    """Identity alignment on 5 nodes: true anchor always ranked first."""
    return np.eye(5) + 0.01


@pytest.fixture
def identity_groundtruth():
    return {i: i for i in range(5)}


class TestAnchorRanks:
    def test_perfect_ranks(self, perfect_scores, identity_groundtruth):
        np.testing.assert_array_equal(
            anchor_ranks(perfect_scores, identity_groundtruth), np.ones(5)
        )

    def test_worst_rank(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        assert anchor_ranks(scores, {0: 0})[0] == 3

    def test_ties_pessimistic(self):
        scores = np.zeros((1, 4))
        # All tied: rank must be worst (4), never 1.
        assert anchor_ranks(scores, {0: 2})[0] == 4

    def test_empty_groundtruth_rejected(self):
        with pytest.raises(ValueError):
            anchor_ranks(np.eye(2), {})

    def test_partial_groundtruth(self):
        scores = np.eye(4)
        ranks = anchor_ranks(scores, {1: 1, 3: 3})
        assert len(ranks) == 2


class TestSuccessAt:
    def test_perfect(self, perfect_scores, identity_groundtruth):
        assert success_at(perfect_scores, identity_groundtruth, 1) == 1.0

    def test_q_widens_success(self):
        scores = np.array([[0.5, 1.0, 0.1]])  # true target 0 ranked 2nd
        assert success_at(scores, {0: 0}, 1) == 0.0
        assert success_at(scores, {0: 0}, 2) == 1.0

    def test_invalid_q(self, perfect_scores, identity_groundtruth):
        with pytest.raises(ValueError):
            success_at(perfect_scores, identity_groundtruth, 0)

    def test_monotone_in_q(self, rng):
        scores = rng.normal(size=(20, 20))
        groundtruth = {i: i for i in range(20)}
        values = [success_at(scores, groundtruth, q) for q in (1, 5, 10, 20)]
        assert values == sorted(values)
        assert values[-1] == 1.0


class TestMAP:
    def test_perfect(self, perfect_scores, identity_groundtruth):
        assert evaluate_alignment(perfect_scores, identity_groundtruth).map == 1.0

    def test_reciprocal_rank(self):
        scores = np.array([[0.5, 1.0, 0.1]])  # rank 2
        assert evaluate_alignment(scores, {0: 0}).map == pytest.approx(0.5)

    def test_bounded(self, rng):
        scores = rng.normal(size=(15, 15))
        value = evaluate_alignment(scores, {i: i for i in range(15)}).map
        assert 0.0 < value <= 1.0


class TestAUC:
    def test_perfect(self, perfect_scores, identity_groundtruth):
        assert auc(perfect_scores, identity_groundtruth) == 1.0

    def test_worst_is_zero(self):
        scores = np.array([[0.0, 1.0, 2.0]])  # true target 0 ranked last
        assert auc(scores, {0: 0}) == pytest.approx(0.0)

    def test_single_candidate_rejected(self):
        with pytest.raises(ValueError):
            auc(np.ones((2, 1)), {0: 0})

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_scores_near_half(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(60, 60))
        value = auc(scores, {i: i for i in range(60)})
        assert 0.25 < value < 0.75


class TestEvaluateAlignment:
    def test_bundles_all_metrics(self, perfect_scores, identity_groundtruth):
        report = evaluate_alignment(perfect_scores, identity_groundtruth)
        assert report.map == 1.0
        assert report.auc == 1.0
        assert report.success_at_1 == 1.0
        assert report.success_at_10 == 1.0
        assert report.num_anchors == 5

    def test_as_dict_keys(self, perfect_scores, identity_groundtruth):
        report = evaluate_alignment(perfect_scores, identity_groundtruth)
        assert set(report.as_dict()) == {"MAP", "AUC", "Success@1", "Success@10"}

    def test_str_format(self, perfect_scores, identity_groundtruth):
        assert "MAP=1.0000" in str(
            evaluate_alignment(perfect_scores, identity_groundtruth)
        )


class TestMatching:
    def test_top1_not_necessarily_injective(self):
        scores = np.array([[1.0, 0.0], [1.0, 0.0]])
        matching = top1_matching(scores)
        assert matching == {0: 0, 1: 0}

    def test_hungarian_optimal(self):
        scores = np.array([[0.9, 0.8], [0.85, 0.1]])
        # Greedy would take (0,0)=0.9 then (1,1)=0.1 → total 1.0;
        # optimal is (0,1)+(1,0) = 0.8+0.85 = 1.65.
        matching = hungarian_matching(scores)
        assert matching == {0: 1, 1: 0}

    def test_hungarian_rectangular(self, rng):
        scores = rng.random((4, 7))
        matching = hungarian_matching(scores)
        assert len(matching) == 4
        assert len(set(matching.values())) == 4

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_hungarian_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((5, 5))
        best_total = max(
            scores[np.arange(5), list(perm)].sum()
            for perm in itertools.permutations(range(5))
        )
        optimal_total = sum(scores[s, t] for s, t in hungarian_matching(scores).items())
        assert optimal_total == pytest.approx(best_total, abs=1e-12)


class TestMatchingValidation:
    """Degenerate score matrices raise a ValueError naming the dimension."""

    MATCHERS = [top1_matching, hungarian_matching]

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_zero_source_rows(self, matcher):
        with pytest.raises(ValueError, match="0 source rows"):
            matcher(np.empty((0, 5)))

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_zero_target_columns(self, matcher):
        with pytest.raises(ValueError, match="0 target columns"):
            matcher(np.empty((5, 0)))

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_non_2d(self, matcher):
        with pytest.raises(ValueError, match="2-D"):
            matcher(np.zeros(5))

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_message_names_the_caller(self, matcher):
        with pytest.raises(ValueError, match=matcher.__name__):
            matcher(np.empty((0, 0)))

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_single_cell_still_works(self, matcher):
        assert matcher(np.array([[1.0]])) == {0: 0}
