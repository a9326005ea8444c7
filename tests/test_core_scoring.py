"""Tests for the canonical per-pair score and its rounding slack.

``pair_scores`` is the one value every top-k path reports, so a pair
must score the same bits whatever else is scored with it: alone, in a
batch, in reverse order, across a chunk boundary, or read from an
mmap'd artifact.  ``score_slack`` must stay finite around poisoned rows,
or a selector comparing against ``kth - slack`` would drop them.
``scan_top_k``, the one exact top-k, must equal a brute-force sort of
every pair's ``pair_scores`` at any block size, and at any embedding
scale: it selects in float32 when ``selection_dtype`` finds that safe,
and the slack for that dtype must cover its rounding, subnormals
included, and rows past ~1e154 must not drop out of it.
``RunningTopK`` must end with the same kth and candidates whether its
blocks are merged compare-first (tall) or densely (short slices).  A
side with no rows is a ``ValueError`` naming it at every entry point.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import find_stable_nodes, streaming_top_k
from repro.core.scoring import (
    PAIR_CHUNK, TALL_BLOCK, RunningTopK, pair_scores, scan_top_k,
    score_slack, selection_dtype,
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
    dtype = selection_dtype(source, target, weights)
    slack = score_slack(source, target, weights, dtype)
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
                source, target, weights, sources, k, block, slack[sources],
                dtype,
            )
            assert bits(got_t) == bits(expected_t), (k, block)
            assert bits(got_s) == bits(expected_s), (k, block)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    n_source=st.integers(1, 20),
    n_target=st.integers(1, 120),
    source_scale=st.integers(-140, 120),
    target_scale=st.integers(-140, 120),
    tiny_row=st.sampled_from([None, "source", "target"]),
    duplicates=st.integers(0, 8),
    poison=st.sampled_from([None, "source", "target", "inf"]),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scan_top_k_selects_exactly_at_any_scale(
    seed, dims, n_source, n_target, source_scale, target_scale, tiny_row,
    duplicates, poison,
):
    # Scales 2^-140..2^120 reach float32 subnormals, rows far below the
    # rest and products past float32's range (where the guard must pick
    # float64); the answer must be the brute-force canonical order.
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((n_source, d)) * 2.0 ** source_scale
              for d in dims]
    target = [rng.standard_normal((n_target, d)) * 2.0 ** target_scale
              for d in dims]
    weights = [float(w) for w in rng.uniform(-1.0, 1.0, len(dims))]
    if tiny_row is not None:
        side = source if tiny_row == "source" else target
        for layer in side:
            layer[rng.integers(layer.shape[0])] *= 2.0 ** -100
    copies = rng.integers(0, n_target, (duplicates, 2))
    for layer in target:
        layer[copies[:, 0]] = layer[copies[:, 1]]
    if poison == "source":
        source[0][rng.integers(n_source), 0] = np.nan
    elif poison == "target":
        target[-1][rng.integers(n_target), -1] = np.nan
    elif poison == "inf":
        target[0][rng.integers(n_target), 0] = np.inf
    sources = rng.permutation(n_source)
    rows, ids = np.meshgrid(sources, np.arange(n_target), indexing="ij")
    full = pair_scores(
        source, target, weights, rows.ravel(), ids.ravel()
    ).reshape(rows.shape)
    order = np.lexsort((ids, -full))
    for dtype in (selection_dtype(source, target, weights), np.float64):
        slack = score_slack(source, target, weights, dtype)[sources]
        for k in sorted({1, min(5, n_target), n_target}):
            expected_t = order[:, :k]
            expected_s = np.take_along_axis(full, expected_t, axis=1)
            for block in (1, 7, 64, n_target + 5):
                got_t, got_s, _ = scan_top_k(
                    source, target, weights, sources, k, block, slack,
                    dtype,
                )
                assert bits(got_t) == bits(expected_t), (dtype, k, block)
                assert bits(got_s) == bits(expected_s), (dtype, k, block)


class TestSelectionDtype:
    def layers(self, source_scale, target_scale):
        rng = np.random.default_rng(8)
        source = [rng.standard_normal((10, 16)) * 2.0 ** source_scale
                  for _ in range(2)]
        target = [rng.standard_normal((40, 16)) * 2.0 ** target_scale
                  for _ in range(2)]
        return source, target

    @pytest.mark.parametrize("scales", [(0, 0), (-60, 40), (100, -90)])
    def test_float32_when_every_product_fits(self, scales):
        source, target = self.layers(*scales)
        assert selection_dtype(source, target, [0.6, 0.4]) == np.float32

    @pytest.mark.parametrize("scales", [
        (64, 64),     # products past float32's maximum
        (130, -130),  # small products, but a query entry overflows
        (-140, 0),    # subnormal queries: nothing left to select by
        (-70, -70),   # every product below float32's normal range
    ])
    def test_float64_outside_float32s_range(self, scales):
        source, target = self.layers(*scales)
        assert selection_dtype(source, target, [0.6, 0.4]) == np.float64

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ignores_non_finite_entries(self):
        source, target = self.layers(0, 0)
        source[0][3, 1] = np.nan
        target[1][5] = np.inf
        assert selection_dtype(source, target, [0.6, 0.4]) == np.float32
        target[0][7, 2] = 2.0 ** 127  # finite, and past the headroom
        assert selection_dtype(source, target, [0.6, 0.4]) == np.float64

    def test_zero_embeddings_select_in_float64(self):
        zeros = [np.zeros((3, 4))]
        assert selection_dtype(zeros, zeros, [1.0]) == np.float64


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scan_top_k_counts_sanitized_blocks():
    rng = np.random.default_rng(7)
    source = [rng.standard_normal((4, 3))]
    target = [rng.standard_normal((20, 3))]
    dtype = selection_dtype(source, target, [1.0])
    slack = score_slack(source, target, [1.0], dtype)
    sources = np.arange(4)
    args = (sources, 2, 8, slack, dtype)
    assert scan_top_k(source, target, [1.0], *args)[2] == 0
    target[0][[1, 17]] = np.inf
    # Rows 1 and 17 sit in blocks [0, 8) and [16, 20) of three.
    assert scan_top_k(source, target, [1.0], *args)[2] == 2


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
        dtype = selection_dtype(source, target, [0.7, 0.3])
        slack = score_slack(source, target, [0.7, 0.3], dtype)
        assert np.isfinite(slack).all()
        assert slack[2] == 0.0
        assert (np.delete(slack, 2) > 0.0).all()

    def test_covers_the_gemm_rounding(self):
        # Entries of a full-width float64 GEMM, per layer or θ-folded as
        # scan_top_k selects in float64, stay within half the float64
        # slack of their canonical values (the other half covers the kth).
        rng = np.random.default_rng(5)
        source = [rng.standard_normal((30, 64)) for _ in range(3)]
        target = [rng.standard_normal((500, 64)) for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        gemm = sum(w * (s @ t.T) for w, s, t in zip(weights, source, target))
        folded = np.concatenate(
            [w * s for w, s in zip(weights, source)], axis=1
        ) @ np.concatenate(target, axis=1).T
        rows, ids = np.meshgrid(range(30), range(500), indexing="ij")
        canonical = pair_scores(
            source, target, weights, rows.ravel(), ids.ravel()
        ).reshape(gemm.shape)
        slack = score_slack(source, target, weights, np.float64)
        assert (np.abs(gemm - canonical) <= slack[:, None] / 2).all()
        assert (np.abs(folded - canonical) <= slack[:, None] / 2).all()

    @pytest.mark.parametrize("scales", [
        (0, 0), (-130, 30), (-60, -60), (-140, 40), (-145, 20),
    ])
    def test_covers_the_float32_selecting_gemm(self, scales):
        # The θ-folded float32 GEMM that scan_top_k selects with stays
        # within half the float32 slack of canonical, also where casts
        # and products land on float32 subnormals (the absolute term).
        rng = np.random.default_rng(5)
        source = [rng.standard_normal((30, 64)) * 2.0 ** scales[0]
                  for _ in range(3)]
        target = [rng.standard_normal((500, 64)) * 2.0 ** scales[1]
                  for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        queries = np.concatenate(
            [w * s for w, s in zip(weights, source)], axis=1
        ).astype(np.float32)
        gemm = queries @ np.concatenate(target, axis=1).astype(np.float32).T
        rows, ids = np.meshgrid(range(30), range(500), indexing="ij")
        canonical = pair_scores(
            source, target, weights, rows.ravel(), ids.ravel()
        ).reshape(gemm.shape)
        slack = score_slack(source, target, weights, np.float32)
        assert (np.abs(gemm - canonical) <= slack[:, None] / 2).all()
        if scales == (0, 0):
            assert selection_dtype(source, target, weights) == np.float32
            # The float32 unit: ~2^29 times float64's slack, and still
            # far below the spread of unit-scale scores.
            assert (slack < 1e-2).all()

    def test_finite_rows_past_the_square_overflow(self):
        # Regression: squared row norms overflowed past ~1e154, so such
        # finite target rows dropped out of the slack as "non-finite"
        # and top_k broke from the canonical order, here between two
        # huge rows 1 ULP apart.
        wrong = 0
        for trial in range(30):
            rng = np.random.default_rng(trial)
            source = [rng.standard_normal((20, 8))]
            target = [rng.standard_normal((50, 8))]
            huge = rng.choice(50, 10, replace=False)
            target[0][huge] *= 1e160
            target[0][huge[1]] = target[0][huge[0]]
            target[0][huge[1], 0] = np.nextafter(
                target[0][huge[0], 0], np.inf
            )
            sources = np.arange(20)
            for block in (7, 50):
                index = AlignmentIndex(
                    source, target, [1.0], target_block_size=block
                )
                full = index.score_rows(sources)
                ids = np.broadcast_to(np.arange(50), full.shape)
                order = np.lexsort((ids, -full))
                for k in (1, 3, 10):
                    got, _ = index.top_k(sources, k)
                    wrong += int((got != order[:, :k]).any(axis=1).sum())
        assert wrong == 0

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


class CountingTopK(RunningTopK):
    """A :class:`RunningTopK` that counts its compare-first merges."""

    merges = 0

    def _merge_hits(self, *args):
        self.merges += 1
        return super()._merge_hits(*args)


def sorted_candidates(selector, slack):
    rows, ids, values = selector.candidates(slack)
    order = np.lexsort((ids, rows))
    return rows[order], ids[order], values[order]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float32, np.float64]),
    extra_rows=st.integers(0, 40),
    spare_rows=st.sampled_from([None, 0, 17]),
    widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    k=st.integers(1, 8),
    slack_kind=st.sampled_from(["none", "zero", "ulps", "wide", "mixed"]),
    minus_inf=st.sampled_from([0.0, 0.1, 0.6]),
    slice_height=st.integers(1, TALL_BLOCK - 1),
)
def test_running_top_k_routes_agree(
    seed, dtype, extra_rows, spare_rows, widths, k, slack_kind, minus_inf,
    slice_height,
):
    # One tall block per push takes the compare-first merge once every
    # row holds k values; the same rows pushed in short slices take the
    # dense merge.  Both must end with the same kth and candidates.
    rng = np.random.default_rng(seed)
    height = TALL_BLOCK + extra_rows
    # rows=None, or a permuted subset of a larger batch.
    if spare_rows is None:
        batch, rows = height, None
    else:
        batch = height + spare_rows
        rows = rng.permutation(batch)[:height]
    slice_rows = np.arange(height) if rows is None else rows
    # Values on a coarse grid tie at the kth; their float32 neighbours
    # below sit between a grid-valued kth and kth - slack.
    def values(width):
        grid = (rng.integers(-12, 13, (height, width)) / 4).astype(dtype)
        below = rng.random(grid.shape) < 0.2
        grid[below] = np.nextafter(grid[below], dtype(-np.inf))
        return grid
    first = max(widths[0], k)  # every row holds k finite values after it
    blocks = [values(first)] + [values(width) for width in widths[1:]]
    for block in blocks[1:]:
        block[rng.random(block.shape) < minus_inf] = -np.inf
    # "ulps" puts kth - slack between two adjacent float32 values.
    slack = {
        "none": None,
        "zero": np.zeros(batch),
        "ulps": rng.uniform(0.1, 3.0, batch) * 2.0 ** -22,
        "wide": rng.uniform(0.0, 2.0, batch),
        "mixed": rng.choice([0.0, 2.0 ** -21, 0.3, np.inf], batch),
    }[slack_kind]

    tall, short = CountingTopK(batch, k), CountingTopK(batch, k)
    start = 0
    for block in blocks:
        tall.push(block, start, rows=rows,
                  slack=None if slack is None else slack[slice_rows])
        for lo in range(0, height, slice_height):
            part = slice(lo, lo + slice_height)
            short.push(
                block[part], start, rows=slice_rows[part],
                slack=None if slack is None else slack[slice_rows[part]],
            )
        start += block.shape[1]
    assert tall.merges == len(blocks) - 1
    assert short.merges == 0
    assert np.array_equal(tall.kth, short.kth)
    for got, want in zip(sorted_candidates(tall, slack),
                         sorted_candidates(short, slack)):
        assert bits(got) == bits(want)


@pytest.mark.parametrize("slack", [
    0.0, 2.0 ** -26, 0.75 * 2.0 ** -23, 1.5 * 2.0 ** -23, 1e39, 1e300,
    np.inf,
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_float32_floor_keeps_every_entry_reaching_the_float64_floor(slack):
    # kth is 1.0 in every row, so the float64 floor 1 - slack falls on,
    # between two adjacent float32 values near 1, or past float32's
    # range.  The block holds the float32 values around it: each one
    # reaching the floor in float64 must survive the float32 compare.
    floor = 1.0 - slack
    down, up = np.float32(-np.inf), np.float32(np.inf)
    near = np.float32(floor)
    above = np.nextafter(near, up)
    entries = np.array([
        np.nextafter(near, down), near, above, np.nextafter(above, up),
        down, -np.finfo(np.float32).max, 0.5, 1.0,
    ], np.float32)
    selector = CountingTopK(TALL_BLOCK, 3)
    selector.push(np.ones((TALL_BLOCK, 3), np.float32))
    selector.push(np.tile(entries, (TALL_BLOCK, 1)), 3,
                  slack=np.full(TALL_BLOCK, slack))
    assert selector.merges == 1
    assert (selector.kth == 1.0).all()
    rows, ids, _ = selector.candidates(np.full(TALL_BLOCK, slack))
    reaching = np.flatnonzero(entries.astype(np.float64) >= floor) + 3
    for row in (0, TALL_BLOCK - 1):
        assert bits(np.sort(ids[rows == row])) == bits(
            np.concatenate([np.arange(3), reaching])
        )


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
