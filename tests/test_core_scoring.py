"""Tests for the canonical per-pair score and its rounding slack.

``pair_scores`` is the one value every top-k path reports, so a pair
must score the same bits whatever else is scored with it: alone, in a
batch, in reverse order, across a chunk boundary, or read from an
mmap'd artifact.  ``score_slack`` must stay finite around poisoned rows,
or a selector comparing against ``kth - slack`` would drop them.
``scan_top_k``, the one exact top-k, must equal a brute-force sort of
every pair's ``pair_scores`` at any block size.  A side with no rows is
a ``ValueError`` naming it at every entry point.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import find_stable_nodes, streaming_top_k
from repro.core.scoring import (
    PAIR_CHUNK, pair_scores, scan_top_k, score_slack,
)
from repro.serving import AlignmentIndex, export_artifact, load_artifact


def bits(array):
    return np.ascontiguousarray(array).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 70), min_size=1, max_size=3),
    n_pairs=st.integers(1, 30),
)
def test_pair_score_is_the_same_bits_in_any_context(seed, dims, n_pairs):
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((9, d)) for d in dims]
    target = [rng.standard_normal((11, d)) for d in dims]
    weights = [float(w) for w in rng.uniform(-1.0, 1.0, len(dims))]
    rows = rng.integers(0, 9, n_pairs)
    ids = rng.integers(0, 11, n_pairs)
    batch = pair_scores(source, target, weights, rows, ids)

    for pair in range(n_pairs):
        alone = pair_scores(
            source, target, weights, rows[pair:pair + 1], ids[pair:pair + 1]
        )
        assert bits(alone) == bits(batch[pair:pair + 1])
    backwards = pair_scores(source, target, weights, rows[::-1], ids[::-1])
    assert bits(backwards[::-1]) == bits(batch)
    # The first pair ends chunk 0 and the rest open chunk 1.
    pad = PAIR_CHUNK - 1
    straddle = pair_scores(
        source, target, weights,
        np.concatenate([np.zeros(pad, dtype=np.int64), rows]),
        np.concatenate([np.zeros(pad, dtype=np.int64), ids]),
    )
    assert bits(straddle[pad:]) == bits(batch)
    with tempfile.TemporaryDirectory() as tmp:
        export_artifact(f"{tmp}/artifact", source, target, weights)
        artifact = load_artifact(f"{tmp}/artifact", mmap=True)
        mapped = pair_scores(
            artifact.source_embeddings, artifact.target_embeddings,
            artifact.layer_weights, rows, ids,
        )
        assert bits(mapped) == bits(batch)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 70), min_size=1, max_size=3),
    n_source=st.integers(1, 40),
    n_target=st.integers(1, 300),
    duplicates=st.integers(0, 8),
    nan_row=st.sampled_from([None, "source", "target"]),
)
def test_scan_top_k_equals_brute_force(
    seed, dims, n_source, n_target, duplicates, nan_row
):
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((n_source, d)) for d in dims]
    target = [rng.standard_normal((n_target, d)) for d in dims]
    weights = [float(w) for w in rng.uniform(-1.0, 1.0, len(dims))]
    # Copied target rows score exactly alike: ties, often across blocks.
    copies = rng.integers(0, n_target, (duplicates, 2))
    for layer in target:
        layer[copies[:, 0]] = layer[copies[:, 1]]
    if nan_row == "source":
        source[0][rng.integers(n_source), 0] = np.nan
    elif nan_row == "target":
        target[-1][rng.integers(n_target), -1] = np.nan
    slack = score_slack(source, target, weights)
    sources = rng.permutation(n_source)
    rows, ids = np.meshgrid(sources, np.arange(n_target), indexing="ij")
    full = pair_scores(
        source, target, weights, rows.ravel(), ids.ravel()
    ).reshape(rows.shape)
    order = np.lexsort((ids, -full))
    for k in sorted({1, min(5, n_target), n_target}):
        expected_t = order[:, :k]
        expected_s = np.take_along_axis(full, expected_t, axis=1)
        for block in (1, 7, 64, n_target + 5):
            got_t, got_s, _ = scan_top_k(
                source, target, weights, sources, k, block, slack[sources]
            )
            assert bits(got_t) == bits(expected_t), (k, block)
            assert bits(got_s) == bits(expected_s), (k, block)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scan_top_k_counts_sanitized_blocks():
    rng = np.random.default_rng(7)
    source = [rng.standard_normal((4, 3))]
    target = [rng.standard_normal((20, 3))]
    slack = score_slack(source, target, [1.0])
    sources = np.arange(4)
    assert scan_top_k(source, target, [1.0], sources, 2, 8, slack)[2] == 0
    target[0][[1, 17]] = np.inf
    # Rows 1 and 17 sit in blocks [0, 8) and [16, 20) of three.
    assert scan_top_k(source, target, [1.0], sources, 2, 8, slack)[2] == 2


def test_pair_scores_sanitizes_non_finite_pairs():
    source = [np.array([[1.0, 2.0], [np.nan, 0.0]])]
    target = [np.array([[1.0, 1.0], [np.inf, 0.0]])]
    scores = pair_scores(source, target, [1.0], [0, 0, 1], [0, 1, 0])
    assert scores[0] == 3.0
    assert np.isneginf(scores[1:]).all()


class TestSlack:
    def test_poisoned_rows_keep_every_slack_finite(self):
        rng = np.random.default_rng(4)
        source = [rng.standard_normal((6, 5)) for _ in range(2)]
        target = [rng.standard_normal((9, 5)) for _ in range(2)]
        source[0][2] = np.nan
        target[1][4] = np.inf
        target[0][5] = np.nan
        slack = score_slack(source, target, [0.7, 0.3])
        assert np.isfinite(slack).all()
        assert slack[2] == 0.0
        assert (np.delete(slack, 2) > 0.0).all()

    def test_covers_the_gemm_rounding(self):
        # Entries of a full-width GEMM stay within half the slack of
        # their canonical values (the other half covers the kth).
        rng = np.random.default_rng(5)
        source = [rng.standard_normal((30, 64)) for _ in range(3)]
        target = [rng.standard_normal((500, 64)) for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        gemm = sum(w * (s @ t.T) for w, s, t in zip(weights, source, target))
        rows, ids = np.meshgrid(range(30), range(500), indexing="ij")
        canonical = pair_scores(
            source, target, weights, rows.ravel(), ids.ravel()
        ).reshape(gemm.shape)
        slack = score_slack(source, target, weights)
        assert (np.abs(gemm - canonical) <= slack[:, None] / 2).all()

    def test_nan_source_row_keeps_its_candidates(self):
        # A NaN slack would compare false against every entry and leave
        # the poisoned row with (-1, -inf) padding instead of target ids.
        rng = np.random.default_rng(6)
        source = [rng.standard_normal((5, 4))]
        target = [rng.standard_normal((30, 4))]
        source[0][1, 0] = np.nan
        index = AlignmentIndex(source, target, [1.0], target_block_size=8)
        targets, scores = index.top_k(np.arange(5), k=3)
        assert np.isneginf(scores[1]).all()
        assert ((0 <= targets[1]) & (targets[1] < 30)).all()


class TestEmptySide:
    """Regression: ``check_layers`` accepted a side with zero rows, so the
    entry points failed deep inside their scans (``IndexError`` in
    ``RunningTopK``, ``range()`` with step 0, ``argmax`` of an empty
    sequence) instead of naming the empty side."""

    SOURCE = [np.ones((3, 2))]
    EMPTY = [np.zeros((0, 2))]

    def test_index_top_k(self):
        with pytest.raises(ValueError, match="target embeddings have no rows"):
            AlignmentIndex(self.SOURCE, self.EMPTY, [1.0]).top_k(
                np.arange(3), 1
            )

    def test_streaming_top_k(self):
        with pytest.raises(ValueError, match="target embeddings have no rows"):
            streaming_top_k(self.SOURCE, self.EMPTY, [1.0])

    def test_find_stable_nodes(self):
        with pytest.raises(ValueError, match="target embeddings have no rows"):
            find_stable_nodes(self.SOURCE, self.EMPTY, [1.0], threshold=0.5)

    def test_empty_source_named(self):
        with pytest.raises(ValueError, match="source embeddings have no rows"):
            find_stable_nodes(self.EMPTY, self.SOURCE, [1.0], threshold=0.5)
