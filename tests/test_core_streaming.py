"""Tests for memory-bounded streaming alignment (paper §VI-C)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GAlignConfig,
    GAlignTrainer,
    StreamingAligner,
    aggregate_alignment,
    find_stable_nodes,
    iter_score_blocks,
    layerwise_alignment_matrices,
    streaming_evaluate,
    streaming_top_k,
)
from repro.graphs import generators, noisy_copy_pair
from repro.metrics import evaluate_alignment

from .refine_oracle import dense_scan


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(9)
    graph = generators.barabasi_albert(60, 2, rng, feature_dim=8,
                                       feature_kind="degree")
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    config = GAlignConfig(epochs=15, embedding_dim=16)
    model, _ = GAlignTrainer(config, rng).train(pair)
    source = model.embed(pair.source)
    target = model.embed(pair.target)
    weights = config.resolved_layer_weights()
    return pair, model, config, source, target, weights


class TestIterScoreBlocks:
    def test_blocks_reassemble_full_matrix(self, trained):
        pair, _, _, source, target, weights = trained
        full = aggregate_alignment(
            layerwise_alignment_matrices(source, target), weights
        )
        streamed = np.vstack([
            block for _, block in iter_score_blocks(source, target, weights,
                                                    block_size=17)
        ])
        np.testing.assert_allclose(streamed, full, rtol=1e-10)

    def test_row_ranges_cover_all(self, trained):
        _, _, _, source, target, weights = trained
        covered = []
        for rows, _ in iter_score_blocks(source, target, weights, block_size=13):
            covered.extend(rows)
        assert covered == list(range(source[0].shape[0]))

    def test_validates_inputs(self, trained):
        _, _, _, source, target, weights = trained
        with pytest.raises(ValueError):
            list(iter_score_blocks(source, target, weights, block_size=0))
        with pytest.raises(ValueError):
            list(iter_score_blocks(source, target[:-1], weights[:-1]))
        with pytest.raises(ValueError):
            list(iter_score_blocks(source, target, weights[:-1]))
        # Empty layer lists: every Eq 11/12 entry point raises ValueError.
        with pytest.raises(ValueError):
            list(iter_score_blocks([], [], []))
        with pytest.raises(ValueError):
            streaming_top_k([], [], [])
        with pytest.raises(ValueError):
            streaming_evaluate([], [], [], {0: 0})


class TestStreamingTopK:
    def test_matches_dense_argmax(self, trained):
        _, _, _, source, target, weights = trained
        full = aggregate_alignment(
            layerwise_alignment_matrices(source, target), weights
        )
        targets, scores = streaming_top_k(source, target, weights, k=1,
                                          block_size=11)
        np.testing.assert_array_equal(targets[:, 0], full.argmax(axis=1))
        np.testing.assert_allclose(scores[:, 0], full.max(axis=1), rtol=1e-10)

    def test_topk_sorted_descending(self, trained):
        _, _, _, source, target, weights = trained
        _, scores = streaming_top_k(source, target, weights, k=5)
        assert np.all(np.diff(scores, axis=1) <= 1e-12)

    def test_k_capped_at_targets(self, trained):
        _, _, _, source, target, weights = trained
        targets, _ = streaming_top_k(source, target, weights, k=10_000)
        assert targets.shape[1] == target[0].shape[0]

    def test_invalid_k(self, trained):
        _, _, _, source, target, weights = trained
        with pytest.raises(ValueError):
            streaming_top_k(source, target, weights, k=0)


class TestStreamingEvaluate:
    def test_matches_dense_metrics(self, trained):
        pair, _, _, source, target, weights = trained
        full = aggregate_alignment(
            layerwise_alignment_matrices(source, target), weights
        )
        dense = evaluate_alignment(full, pair.groundtruth)
        streamed = streaming_evaluate(source, target, weights,
                                      pair.groundtruth, block_size=7)
        assert streamed.map == pytest.approx(dense.map)
        assert streamed.auc == pytest.approx(dense.auc)
        assert streamed.success_at_1 == pytest.approx(dense.success_at_1)
        assert streamed.success_at_10 == pytest.approx(dense.success_at_10)

    def test_partial_groundtruth(self, trained):
        pair, _, _, source, target, weights = trained
        partial = dict(list(pair.groundtruth.items())[:10])
        report = streaming_evaluate(source, target, weights, partial)
        assert report.num_anchors == 10

    def test_empty_groundtruth_rejected(self, trained):
        _, _, _, source, target, weights = trained
        with pytest.raises(ValueError):
            streaming_evaluate(source, target, weights, {})


class TestMemoryBound:
    """§VI-C: streaming holds O(block_size · n_target), never all of S.

    2048 sources x 20000 targets: S is 32 blocks of 64 rows, and each
    consumer must peak below 5 blocks.
    """

    BLOCK = 64
    N_TARGET = 20_000

    @pytest.fixture(scope="class")
    def embeddings(self):
        rng = np.random.default_rng(21)
        source = [rng.standard_normal((2048, 16)) for _ in range(3)]
        target = [rng.standard_normal((self.N_TARGET, 16)) for _ in range(3)]
        return source, target, [0.5, 0.3, 0.2]

    def peak_blocks(self, run):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (self.BLOCK * self.N_TARGET * 8)

    def test_top_k_peak(self, embeddings):
        source, target, weights = embeddings
        blocks = self.peak_blocks(lambda: streaming_top_k(
            source, target, weights, k=10, block_size=self.BLOCK, workers=0,
        ))
        assert blocks < 5, f"streaming_top_k peaked at {blocks:.2f} blocks"

    def test_evaluate_peak(self, embeddings):
        source, target, weights = embeddings
        groundtruth = {node: node for node in range(2048)}
        blocks = self.peak_blocks(lambda: streaming_evaluate(
            source, target, weights, groundtruth, block_size=self.BLOCK,
            workers=0,
        ))
        assert blocks < 5, f"streaming_evaluate peaked at {blocks:.2f} blocks"

    def test_top_k_equals_the_index(self, embeddings):
        source, target, weights = embeddings
        TestIndexParity.assert_same(source, target, weights, 10, self.BLOCK,
                                    512)


class TestStreamingAligner:
    def test_top_anchors_structure(self, trained):
        pair, model, config, *_ = trained
        aligner = StreamingAligner(model, config, block_size=16)
        anchors = aligner.top_anchors(pair, k=3)
        assert len(anchors) == pair.source.num_nodes
        first = anchors[0]
        assert len(first) == 3
        assert first[0][1] >= first[1][1] >= first[2][1]

    def test_evaluate_reasonable(self, trained):
        pair, model, config, *_ = trained
        report = StreamingAligner(model, config).evaluate(pair)
        assert report.map > 0.2  # trained model beats random easily


class TestStreamingStableNodes:
    def test_matches_dense_find_stable_nodes(self, trained):
        pair, _, config, source, target, weights = trained
        dense_sources, dense_targets, dense_quality, _ = dense_scan(
            source, target, weights, config.stability_threshold
        )
        sources, targets, quality, sanitized = find_stable_nodes(
            source, target, weights, config.stability_threshold,
            block_size=13,
        )
        np.testing.assert_array_equal(sources, dense_sources)
        np.testing.assert_array_equal(targets, dense_targets)
        assert quality == dense_quality
        assert sanitized == 0

    def test_threshold_one_rejects_everything(self, trained):
        _, _, _, source, target, weights = trained
        sources, targets, _, _ = find_stable_nodes(
            source, target, weights, threshold=10.0
        )
        assert len(sources) == 0
        assert len(targets) == 0

    def test_empty_embeddings_rejected(self):
        with pytest.raises(ValueError):
            find_stable_nodes([], [], [], threshold=0.5)
        # Layer/weight counts must agree instead of zip truncating.
        rng = np.random.default_rng(0)
        s3 = [rng.standard_normal((6, 4)) for _ in range(3)]
        t3 = [rng.standard_normal((5, 4)) for _ in range(3)]
        with pytest.raises(ValueError):
            find_stable_nodes(s3, t3, [0.5, 0.5], threshold=0.5)
        with pytest.raises(ValueError):
            find_stable_nodes(s3, t3[:2], [0.5, 0.5], threshold=0.5)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    n_source=st.integers(1, 30),
    n_target=st.integers(1, 40),
    pool=st.integers(1, 6),
    duplicates=st.integers(0, 6),
)
def test_find_stable_nodes_is_bitwise_the_dense_oracle(
    seed, dims, n_source, n_target, pool, duplicates
):
    """Dyadic embeddings (entries k/4, |k| <= 4, weights k/8) make every
    product and sum exact, so S's bits cannot depend on the GEMM shape:
    the row-block scan must give the dense oracle's sources, targets and
    g(S) at any block size, exact ties and thresholds at a maximum
    included."""
    rng = np.random.default_rng(seed)

    def dyadic(rows, width):
        return rng.integers(-4, 5, (rows, width)) / 4

    source = [dyadic(n_source, d) for d in dims]
    target = [dyadic(n_target, d) for d in dims]
    # Layer 0 (attributes) repeats a few distinct rows: exact ties.
    target[0] = dyadic(pool, dims[0])[rng.integers(0, pool, n_target)]
    # Rows copied in every layer tie in the aggregate as well.
    copies = rng.integers(0, n_target, (duplicates, 2))
    for layer in target:
        layer[copies[:, 0]] = layer[copies[:, 1]]
    weights = [float(w) for w in rng.integers(1, 9, len(dims)) / 8]
    maxima = [
        (s @ t.T).max(axis=1) for s, t in zip(source, target)
    ]
    at = float(rng.choice(np.concatenate(maxima)))
    for threshold in (np.nextafter(at, -np.inf), at, np.nextafter(at, np.inf)):
        expected = dense_scan(source, target, weights, threshold)
        for block in (1, 7, 256, n_source + 5):
            sources, targets, quality, sanitized = find_stable_nodes(
                source, target, weights, threshold, block_size=block
            )
            np.testing.assert_array_equal(sources, expected[0])
            np.testing.assert_array_equal(targets, expected[1])
            assert quality == expected[2], (threshold, block)
            assert sanitized == 0


class TestSanitizedRows:
    """Documented -inf contract: a fully-sanitized row has -inf scores and
    meaningless target ids (consumers must treat it as unalignable)."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fully_sanitized_row_returns_neg_inf(self, trained):
        _, _, _, source, target, weights = trained
        poisoned = [layer.copy() for layer in source]
        poisoned[0][4] = np.nan
        targets, scores = streaming_top_k(poisoned, target, weights, k=3,
                                          block_size=16)
        assert np.all(np.isneginf(scores[4]))
        healthy = np.delete(np.arange(scores.shape[0]), 4)
        assert np.isfinite(scores[healthy]).all()
        # ids for the poisoned row are within range but carry no meaning
        assert np.all((0 <= targets[4]) & (targets[4] < target[0].shape[0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_partially_sanitized_row_keeps_finite_winners(self, trained):
        _, _, _, source, target, weights = trained
        poisoned = [layer.copy() for layer in target]
        poisoned[0][7] = np.inf
        targets, scores = streaming_top_k(source, poisoned, weights, k=1,
                                          block_size=16)
        # the poisoned target is -inf for everyone, so it can never win
        assert 7 not in targets
        assert np.isfinite(scores).all()


class TestIndexParity:
    """``streaming_top_k`` and ``AlignmentIndex.top_k`` run the same
    ``scan_top_k``, so their answers agree bit for bit at any streaming
    row block and index target block."""

    @staticmethod
    def assert_same(source, target, weights, k, block_size, target_block):
        from repro.serving import AlignmentIndex

        index = AlignmentIndex(source, target, weights,
                               target_block_size=target_block)
        expected_t, expected_s = index.top_k(np.arange(index.n_source), k)
        got_t, got_s = streaming_top_k(source, target, weights, k=k,
                                       block_size=block_size)
        np.testing.assert_array_equal(got_t, expected_t)
        np.testing.assert_array_equal(got_s, expected_s)

    @pytest.mark.parametrize("k", [1, 5, 60])
    @pytest.mark.parametrize("block_size,target_block",
                             [(11, 7), (16, 64), (60, 512)])
    def test_trained_embeddings(self, trained, k, block_size, target_block):
        _, _, _, source, target, weights = trained
        self.assert_same(source, target, weights, k, block_size, target_block)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_poisoned_rows(self, trained):
        _, _, _, source, target, weights = trained
        source = [layer.copy() for layer in source]
        target = [layer.copy() for layer in target]
        source[0][4] = np.nan
        target[0][7] = np.inf
        for k in (1, 3):
            self.assert_same(source, target, weights, k, 16, 9)


class TestEvaluateGroundtruthMismatch:
    """Regression: groundtruth whose source ids all miss [0, n_source)
    used to stream every block, collect zero ranks, and return a report
    of silent NaN metrics (``np.mean([])``)."""

    def _embeddings(self, n=10, d=4):
        rng = np.random.default_rng(3)
        return ([rng.standard_normal((n, d))],
                [rng.standard_normal((n, d))])

    def test_disjoint_groundtruth_raises(self):
        source, target = self._embeddings()
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            streaming_evaluate(source, target, [1.0],
                               {100: 0, 205: 1}, block_size=4)

    def test_error_names_the_id_range(self):
        source, target = self._embeddings()
        with pytest.raises(ValueError, match=r"\[100, 205\]"):
            streaming_evaluate(source, target, [1.0],
                               {100: 0, 205: 1}, block_size=4)

    def test_never_returns_nan_metrics(self):
        source, target = self._embeddings()
        try:
            report = streaming_evaluate(source, target, [1.0], {42: 0})
        except ValueError:
            return
        assert np.isfinite(report.map)  # pre-fix: NaN

    def test_partially_valid_groundtruth_still_evaluates(self):
        source, target = self._embeddings()
        report = streaming_evaluate(source, target, [1.0],
                                    {2: 2, 100: 0}, block_size=4)
        assert report.num_anchors == 1
        assert np.isfinite(report.map)


class TestStableNodesSanitization:
    """Regression: the stable-node scan used to let NaN scores silently
    drop nodes (NaN comparisons are False) with no counter, no event, and
    no -inf sanitization."""

    def _setup(self):
        # Near-identity embeddings: every node is its own confident match.
        n, d = 12, 12
        base = np.eye(n, d)
        return [base.copy(), base.copy()], [base.copy(), base.copy()]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_counted_in_sanitized_blocks(self):
        from repro.observability import MetricsRegistry

        source, target = self._setup()
        source[0][3] = np.nan
        registry = MetricsRegistry()
        events = []
        registry.add_hook(lambda name, payload: events.append((name, payload)))
        *_, count = find_stable_nodes(source, target, [0.5, 0.5],
                                      threshold=0.4, block_size=5,
                                      registry=registry)
        assert registry.counter(
            "resilience.streaming_sanitized_blocks"
        ).value >= 1
        sanitized = [p for name, p in events
                     if name == "resilience.streaming_sanitized"]
        assert sanitized and sanitized[0]["rows"] == [0, 5]
        # Row 3 of S is NaN in every column.
        assert count == sum(p["bad_entries"] for p in sanitized) == 12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_healthy_nodes_unaffected_by_poisoned_row(self):
        from repro.observability import MetricsRegistry

        source, target = self._setup()
        clean_sources, *_ = find_stable_nodes(
            source, target, [0.5, 0.5], threshold=0.4, block_size=5)
        source[0][3] = np.nan
        poisoned_sources, *_ = find_stable_nodes(
            source, target, [0.5, 0.5], threshold=0.4, block_size=5,
            registry=MetricsRegistry())
        # only the poisoned node may disappear; everyone else survives
        assert set(poisoned_sources) >= set(clean_sources) - {3}

    def test_healthy_run_counts_nothing(self):
        from repro.observability import MetricsRegistry

        source, target = self._setup()
        registry = MetricsRegistry()
        *_, count = find_stable_nodes(source, target, [0.5, 0.5],
                                      threshold=0.4, registry=registry)
        assert count == 0
        assert registry.counter(
            "resilience.streaming_sanitized_blocks"
        ).value == 0
