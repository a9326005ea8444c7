"""Hypothesis property tests for the ranking metrics.

Invariants every rank-based metric must satisfy: invariance under strictly
monotone score transforms, consistency between metrics, and exact behaviour
on constructed rank configurations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    anchor_ranks,
    auc,
    evaluate_alignment,
    success_at,
)


def random_instance(seed, n=15):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(n, n))
    groundtruth = {i: int(rng.integers(0, n)) for i in range(n)}
    return scores, groundtruth


class TestMonotoneInvariance:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_ranks_invariant_under_exp(self, seed):
        scores, groundtruth = random_instance(seed)
        base = anchor_ranks(scores, groundtruth)
        transformed = anchor_ranks(np.exp(scores), groundtruth)
        np.testing.assert_array_equal(base, transformed)

    @given(seed=st.integers(0, 10_000),
           scale=st.floats(0.1, 10.0),
           shift=st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_metrics_invariant_under_affine(self, seed, scale, shift):
        scores, groundtruth = random_instance(seed)
        a = evaluate_alignment(scores, groundtruth)
        b = evaluate_alignment(scores * scale + shift, groundtruth)
        assert a.map == pytest.approx(b.map)
        assert a.auc == pytest.approx(b.auc)
        assert a.success_at_1 == pytest.approx(b.success_at_1)


class TestMetricConsistency:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_success1_lower_bounds_map(self, seed):
        # MAP >= Success@1 always (rank-1 anchors contribute 1 to both).
        scores, groundtruth = random_instance(seed)
        assert evaluate_alignment(scores, groundtruth).map >= success_at(
            scores, groundtruth, 1
        ) - 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_map_upper_bounded_by_success_any_q(self, seed):
        # MAP <= Success@q + (1/(q+1)) * (1 - Success@q) for any q.
        scores, groundtruth = random_instance(seed)
        q = 3
        sq = success_at(scores, groundtruth, q)
        bound = sq + (1.0 / (q + 1)) * (1.0 - sq)
        assert evaluate_alignment(scores, groundtruth).map <= bound + 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_auc_equals_one_iff_all_rank_one(self, seed):
        scores, groundtruth = random_instance(seed)
        ranks = anchor_ranks(scores, groundtruth)
        value = auc(scores, groundtruth)
        if np.all(ranks == 1):
            assert value == pytest.approx(1.0)
        else:
            assert value < 1.0


class TestConstructedRanks:
    def test_known_rank_configuration(self):
        # 4 candidates; true target placed at rank 3 exactly.
        scores = np.array([[0.9, 0.8, 0.5, 0.1]])
        groundtruth = {0: 2}
        assert anchor_ranks(scores, groundtruth)[0] == 3
        assert evaluate_alignment(scores, groundtruth).map == pytest.approx(1 / 3)
        assert auc(scores, groundtruth) == pytest.approx((3 + 1 - 3) / 3)
        assert success_at(scores, groundtruth, 2) == 0.0
        assert success_at(scores, groundtruth, 3) == 1.0

    def test_duplicate_rows_same_ranks(self):
        scores = np.vstack([np.array([0.3, 0.7, 0.5])] * 3)
        groundtruth = {0: 1, 1: 1, 2: 1}
        np.testing.assert_array_equal(
            anchor_ranks(scores, groundtruth), [1, 1, 1]
        )
