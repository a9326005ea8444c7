"""Tests for the canonical per-pair score and its rounding slack.

``pair_scores`` is the one value every top-k path reports, so a pair
must score the same bits whatever else is scored with it: alone, in a
batch, in reverse order, across a chunk boundary, or read from an
mmap'd artifact.  ``score_slack`` must stay finite around poisoned rows,
or a selector comparing against ``kth - slack`` would drop them.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import PAIR_CHUNK, pair_scores, score_slack
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
