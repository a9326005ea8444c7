"""Tests for one-to-many anchor-link instantiation."""

import numpy as np
import pytest

from repro.core import AnchorLink, one_to_many


@pytest.fixture
def scores():
    return np.array([
        [0.9, 0.1, 0.5],
        [0.2, 0.8, 0.7],
        [0.3, 0.75, 0.6],
    ])


class TestAnchorLink:
    def test_anchor_link_frozen(self):
        link = AnchorLink(0, 1, 0.5)
        with pytest.raises(AttributeError):
            link.score = 0.9


class TestOneToMany:
    def test_max_targets_cap(self, scores):
        links = one_to_many(scores, max_targets=2)
        assert all(len(v) <= 2 for v in links.values())
        assert set(links) == {0, 1, 2}

    def test_sorted_descending(self, scores):
        links = one_to_many(scores, max_targets=3)
        for candidates in links.values():
            values = [l.score for l in candidates]
            assert values == sorted(values, reverse=True)

    def test_absolute_threshold(self, scores):
        links = one_to_many(scores, max_targets=3, threshold=0.7)
        assert [l.target for l in links[0]] == [0]
        assert len(links[1]) == 2  # 0.8 and 0.7

    def test_relative_threshold(self, scores):
        links = one_to_many(scores, max_targets=3, relative_threshold=0.9)
        # Row 1: max 0.8, keep >= 0.72 → {1 (0.8), 2 (0.7 excluded)}.
        assert [l.target for l in links[1]] == [1]

    def test_validates_params(self, scores):
        with pytest.raises(ValueError):
            one_to_many(scores, max_targets=0)
        with pytest.raises(ValueError):
            one_to_many(scores, relative_threshold=1.5)

    def test_k_capped_at_target_count(self, scores):
        links = one_to_many(scores, max_targets=100)
        assert all(len(v) == 3 for v in links.values())

    @pytest.mark.parametrize("bad, named", [
        (np.zeros((3, 0)), "0 target columns"),
        (np.zeros((0, 3)), "0 source rows"),
        (np.array([0.9, 0.1]), "2-D"),
    ])
    def test_rejects_degenerate_scores_by_name(self, bad, named):
        # Regression: (3, 0) raised an IndexError from argpartition's
        # output and a 1-D row an unpack ValueError; both now name the
        # problem, as top1_matching does.
        with pytest.raises(ValueError, match=named) as info:
            one_to_many(bad)
        assert "one_to_many" in str(info.value)
