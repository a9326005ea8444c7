"""Tests for the approximate serving tier (:mod:`repro.serving.ann`).

The load-bearing contract: ``mode='ann'`` with ``nprobe == n_clusters``
is **bitwise identical** to the exact index — same targets, same score
bits, ties included — on every topology (single-process, sharded, HTTP).
Everything else (quantization error bounds, deterministic k-means,
parameter taxonomy, cache-key isolation) defends that contract's edges.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import SELECT_HEADROOM, canonical_top_k
from repro.observability import MetricsRegistry, Tracer, get_tracer, set_tracer
from repro.parallel import WorkerPool
from repro.resilience import AnnParameterError
from repro.serving import (
    AlignmentIndex,
    AnnIndex,
    AnnProber,
    QueryEngine,
    ShardedIndex,
    build_ann_state,
    default_nprobe,
    dequantize_int8,
    export_artifact,
    kmeans_fit,
    load_artifact,
    quantize_int8,
    status_for_error,
)
from repro.serving.ann import _ASSIGN_CHUNK, weighted_queries


def _embeddings(rng, n_source=30, n_target=400, dims=(5, 4), ties=True):
    source = [rng.normal(size=(n_source, d)) for d in dims]
    target = [rng.normal(size=(n_target, d)) for d in dims]
    if ties:
        # Exact duplicate target rows force score ties: the canonical
        # (descending score, ascending id) order must survive ANN.
        for layer in target:
            layer[100] = layer[50]
            layer[101] = layer[50]
    return source, target


def _kmeans_task(seed, n, d, n_clusters):
    points = np.random.default_rng(seed).normal(size=(n, d))
    centroids, assignment = kmeans_fit(points, n_clusters, seed=seed)
    return centroids, assignment


class TestQuantization:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape,quant_rows", [
        ((64, 7), 16), ((100, 3), 32), ((33, 5), 512), ((7, 2), 1),
    ])
    def test_roundtrip_error_within_half_scale(self, seed, shape, quant_rows):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3)
        codes, scales = quantize_int8(matrix, quant_rows=quant_rows)
        assert codes.dtype == np.int8
        recon = dequantize_int8(codes, scales, quant_rows=quant_rows)
        per_row_scale = np.repeat(scales, quant_rows)[: shape[0]]
        # The property the candidate-selection margin is built on.
        assert (
            np.abs(matrix - recon) <= per_row_scale[:, None] / 2 + 1e-15
        ).all()

    @staticmethod
    def _assert_half_scale_bound(matrix, quant_rows):
        """``|x − scale·code| <= scale/2`` with codes inside ±127 and a
        1e-9 relative allowance, checked after an exact power-of-two
        lift out of the subnormal range."""
        codes, scales = quantize_int8(matrix, quant_rows=quant_rows)
        row_scale = np.repeat(scales, quant_rows)[: matrix.shape[0], None]
        lift = 2.0 ** 1000
        error = np.abs(matrix * lift - (row_scale * lift) * codes)
        assert (error <= (row_scale * lift) / 2 * (1 + 1e-9)).all()
        assert (np.abs(codes.astype(np.int64)) <= 127).all()

    @settings(max_examples=300, deadline=None)
    @given(
        peaks=st.lists(
            st.floats(min_value=5e-324, max_value=1e-300),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_half_scale_bound_across_subnormal_tail(self, peaks, seed):
        # One block per peak: entries uniform in [-peak, peak], one of
        # them the peak itself.
        rng = np.random.default_rng(seed)
        rows = []
        for peak in peaks:
            block = rng.uniform(-1.0, 1.0, size=(2, 3)) * peak
            block[0, 0] = peak
            rows.append(block)
        self._assert_half_scale_bound(np.vstack(rows), quant_rows=2)

    def test_smallest_subnormal_gets_a_scale(self):
        matrix = np.array([[5e-324, 0.0]])
        codes, scales = quantize_int8(matrix)
        assert scales[0] > 0.0 and codes[0, 0] != 0
        self._assert_half_scale_bound(matrix, quant_rows=512)

    def test_zero_block_is_exact(self):
        matrix = np.zeros((8, 3))
        codes, scales = quantize_int8(matrix, quant_rows=4)
        assert (codes == 0).all() and (scales == 0).all()
        assert (dequantize_int8(codes, scales, 4) == 0).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quantize_int8(np.zeros(3))
        with pytest.raises(ValueError):
            quantize_int8(np.zeros((3, 2)), quant_rows=0)


class TestKMeansDeterminism:
    def test_bit_identical_across_runs(self):
        points = np.random.default_rng(5).normal(size=(300, 6))
        c1, a1 = kmeans_fit(points, 10, seed=7)
        c2, a2 = kmeans_fit(points, 10, seed=7)
        assert np.array_equal(c1, c2) and np.array_equal(a1, a2)
        c3, _ = kmeans_fit(points, 10, seed=8)
        assert not np.array_equal(c1, c3)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_bit_identical_across_worker_counts(self, workers):
        """The IVF build is reproducible wherever it runs.

        The same (seed, shape, clusters) task must produce the same
        centroid bits inline and inside forked pool workers — the
        property that lets shards and parents agree on the coarse tier.
        """
        reference = _kmeans_task(3, 200, 5, 8)
        with WorkerPool(workers).start() as pool:
            results = pool.map(
                _kmeans_task, [(3, 200, 5, 8)] * 3,
                labels=[f"kmeans[{i}]" for i in range(3)],
            )
        for centroids, assignment in results:
            assert np.array_equal(centroids, reference[0])
            assert np.array_equal(assignment, reference[1])

    def test_more_clusters_than_points_clamped(self):
        points = np.random.default_rng(0).normal(size=(5, 3))
        state = build_ann_state([points], n_clusters=64)
        assert state["centroids"].shape[0] == 5
        assert int(state["offsets"][-1]) == 5


def _reference_kmeans(points, n_clusters, seed, iters=8):
    """The whole-matrix formulation :func:`kmeans_fit` must match bit for
    bit: full ``points - c`` kmeans++ distances, ``np.add.at`` Lloyd
    sums and ``cent_sq - 2·GEMM`` assignment in ``_ASSIGN_CHUNK`` rows."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    n_clusters = min(n_clusters, n)
    rng = np.random.default_rng(seed)

    def assign(centroids):
        cent_sq = np.einsum("ij,ij->i", centroids, centroids)
        out = np.empty(n, dtype=np.int64)
        for start in range(0, n, _ASSIGN_CHUNK):
            chunk = points[start:start + _ASSIGN_CHUNK]
            scores = cent_sq[None, :] - 2.0 * (chunk @ centroids.T)
            out[start:start + _ASSIGN_CHUNK] = np.argmin(scores, axis=1)
        return out

    centroids = np.empty((n_clusters, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    delta = points - centroids[0]
    dist_sq = np.einsum("ij,ij->i", delta, delta)
    for cluster in range(1, n_clusters):
        total = float(dist_sq.sum())
        if total <= 0.0 or not np.isfinite(total):
            pick = int(rng.integers(n))
        else:
            draw = rng.random() * total
            pick = min(
                int(np.searchsorted(np.cumsum(dist_sq), draw, side="right")),
                n - 1,
            )
        centroids[cluster] = points[pick]
        delta = points - centroids[cluster]
        dist_sq = np.minimum(dist_sq, np.einsum("ij,ij->i", delta, delta))
    assignment = assign(centroids)
    for _ in range(iters):
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, points)
        counts = np.bincount(assignment, minlength=n_clusters)
        populated = counts > 0
        centroids[populated] = sums[populated] / counts[populated, None]
        assignment = assign(centroids)
    return centroids, assignment


class TestKMeansOracle:
    """``kmeans_fit`` equals the whole-matrix reference bit for bit."""

    #: name → (n, d, distinct rows or None, n_clusters, iters).
    CASES = {
        "ragged-chunk": (1_000, 17, None, 10, 8),
        "above-assign-chunk": (_ASSIGN_CHUNK + 615, 7, None, 16, 3),
        # 5 distinct points for 12 clusters: coinciding centroids lose
        # every tie to a lower id, so some clusters stay empty.
        "duplicates": (100, 4, 5, 12, 5),
        "more-clusters-than-points": (3, 3, None, 10, 8),
        "no-lloyd": (700, 9, None, 8, 0),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_reference(self, name):
        n, d, distinct, n_clusters, iters = self.CASES[name]
        rng = np.random.default_rng(len(name))
        if distinct is None:
            points = rng.normal(size=(n, d))
        else:
            points = np.repeat(
                rng.normal(size=(distinct, d)), n // distinct, axis=0
            )
        centroids, assignment = kmeans_fit(
            points, n_clusters, seed=11, iters=iters
        )
        ref_centroids, ref_assignment = _reference_kmeans(
            points, n_clusters, seed=11, iters=iters
        )
        np.testing.assert_array_equal(assignment, ref_assignment)
        assert centroids.tobytes() == ref_centroids.tobytes()
        if distinct is not None:
            counts = np.bincount(assignment, minlength=n_clusters)
            assert (counts == 0).any()

    def test_peak_memory_is_chunk_sized(self):
        # The whole-matrix formulation peaks near 59 MiB here (two
        # ``points - c`` copies plus the assignment temporaries).
        points = np.random.default_rng(8).normal(size=(20_000, 192))
        tracemalloc.start()
        try:
            kmeans_fit(points, 64, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"kmeans_fit peaked at {peak / 2**20:.1f} MiB"


class TestNonFiniteTargets:
    def test_nan_target_row_is_refused(self, rng):
        # A NaN centroid would capture every point and the quantizer's
        # scale would turn NaN: every query then answers (-1, -inf).
        source, target = _embeddings(rng)
        target[1][123, 2] = np.nan
        with pytest.raises(ValueError, match="1 non-finite"):
            AnnIndex(source, target, [0.6, 0.4], n_clusters=8)
        with pytest.raises(ValueError, match="1 non-finite"):
            build_ann_state(target, n_clusters=8, quantize=False)


class TestBuildSpans:
    def test_build_opens_kmeans_and_quantize_spans(self, rng):
        _, target = _embeddings(rng)
        previous = set_tracer(Tracer())
        try:
            build_ann_state(target, n_clusters=8)
            names = [span.name for span in get_tracer().spans()]
        finally:
            set_tracer(previous)
        assert names == ["serving.ann.kmeans", "serving.ann.quantize"]


class TestParameterTaxonomy:
    @pytest.fixture
    def index(self, rng):
        source, target = _embeddings(rng, n_target=120, ties=False)
        return AnnIndex(source, target, (0.6, 0.4), n_clusters=8, seed=0)

    def test_default_nprobe_is_sqrt(self):
        assert default_nprobe(64) == 8
        assert default_nprobe(1) == 1
        assert default_nprobe(2) <= 2

    @pytest.mark.parametrize("bad", [True, False, 2.5, "3", [1]])
    def test_non_integer_nprobe_rejected(self, index, bad):
        with pytest.raises(AnnParameterError):
            index.top_k([0], k=1, mode="ann", nprobe=bad)

    @pytest.mark.parametrize("bad", [0, -1, 9, 10_000])
    def test_out_of_range_nprobe_rejected(self, index, bad):
        with pytest.raises(AnnParameterError, match=r"\[1, 8\]"):
            index.top_k([0], k=1, mode="ann", nprobe=bad)

    def test_nprobe_with_exact_mode_rejected(self, index):
        with pytest.raises(AnnParameterError, match="mode='ann'"):
            index.top_k([0], k=1, mode="exact", nprobe=3)

    def test_unknown_mode_rejected(self, index):
        with pytest.raises(AnnParameterError, match="mode must be"):
            index.top_k([0], k=1, mode="approximate")

    def test_ann_mode_without_tier_rejected(self, rng):
        source, target = _embeddings(rng, n_target=60, ties=False)
        engine = QueryEngine(
            AlignmentIndex(source, target, (0.6, 0.4)), fingerprint="fp"
        )
        with engine:
            with pytest.raises(AnnParameterError, match="no ANN tier"):
                engine.query(0, k=1, mode="ann")

    def test_errors_are_http_400(self):
        from repro.serving import status_for_error

        assert status_for_error(AnnParameterError("x")) == 400


class TestBitwiseEquality:
    """nprobe == n_clusters reproduces the exact index bit for bit."""

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_full_probe_matches_exact(self, rng, quantize, k):
        source, target = _embeddings(rng)
        exact = AlignmentIndex(source, target, (0.6, 0.4),
                               target_block_size=64)
        ann = AnnIndex(source, target, (0.6, 0.4), n_clusters=12, seed=3,
                       quantize=quantize, target_block_size=64)
        queries = rng.integers(0, 30, size=9)
        expected_t, expected_s = exact.top_k(queries, k=k)
        got_t, got_s = ann.top_k(queries, k=k, mode="ann", nprobe=12)
        assert np.array_equal(got_t, expected_t)
        assert np.array_equal(got_s, expected_s)  # bitwise, not allclose

    def test_single_query_matches_exact(self, rng):
        source, target = _embeddings(rng)
        exact = AlignmentIndex(source, target, (0.6, 0.4))
        ann = AnnIndex(source, target, (0.6, 0.4), n_clusters=6, seed=1)
        expected = exact.top_k([4], k=5)
        got = ann.top_k([4], k=5, mode="ann", nprobe=6)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_tie_rows_keep_canonical_order(self, rng):
        source, target = _embeddings(rng)
        n_target = target[0].shape[0]
        exact = AlignmentIndex(source, target, (0.6, 0.4))
        ann = AnnIndex(source, target, (0.6, 0.4), n_clusters=10, seed=2)
        # Rank the whole target set so the duplicated rows (50/100/101,
        # a genuine three-way score tie) are necessarily included.
        expected_t, expected_s = exact.top_k([0], k=n_target)
        got_t, got_s = ann.top_k([0], k=n_target, mode="ann", nprobe=10)
        assert np.array_equal(got_t, expected_t)
        assert np.array_equal(got_s, expected_s)
        ranks = {int(t): r for r, t in enumerate(expected_t[0])}
        # Canonical tie order: equal scores break by ascending id, and
        # the ANN path reproduced exactly that (bitwise above).
        assert ranks[50] + 1 == ranks[100] and ranks[100] + 1 == ranks[101]
        assert expected_s[0][ranks[50]] == expected_s[0][ranks[101]]

    def test_exact_mode_delegates_verbatim(self, rng):
        source, target = _embeddings(rng)
        exact = AlignmentIndex(source, target, (0.6, 0.4))
        ann = AnnIndex(source, target, (0.6, 0.4), n_clusters=8)
        expected = exact.top_k([1, 2, 3], k=3)
        got = ann.top_k([1, 2, 3], k=3)  # default mode="exact"
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    def test_partial_probe_is_batch_invariant(self, rng):
        """A row's ann answer doesn't depend on its batch-mates."""
        source, target = _embeddings(rng)
        ann = AnnIndex(source, target, (0.6, 0.4), n_clusters=12, seed=0)
        batch_t, batch_s = ann.top_k([3, 7, 11], k=4, mode="ann", nprobe=3)
        for row, src in enumerate([3, 7, 11]):
            solo_t, solo_s = ann.top_k([src], k=4, mode="ann", nprobe=3)
            assert np.array_equal(solo_t[0], batch_t[row])
            assert np.array_equal(solo_s[0], batch_s[row])


def _handcrafted_divergent_state():
    """A tiny IVF state where ann(nprobe=1) provably differs from exact.

    Targets (1 layer, dim 2): t0=[.9,0] t1=[.8,0] | t2=[0,.9] t3=[5,0],
    inverted lists {0,1} and {2,3} with centroids [1,0] and [0,1].  A
    query at [1,0] probing one list sees only {t0,t1} → answers t0,
    while the exact answer is t3 (score 5).  The regression this guards:
    a result cache keyed without the (mode, nprobe) descriptor would
    serve one caller the other's answer.
    """
    target = np.array([[0.9, 0.0], [0.8, 0.0], [0.0, 0.9], [5.0, 0.0]])
    source = np.array([[1.0, 0.0], [0.0, 1.0]])
    state = {
        "centroids": np.array([[1.0, 0.0], [0.0, 1.0]]),
        "offsets": np.array([0, 2, 4], dtype=np.int64),
        "order": np.arange(4, dtype=np.int64),
        "codes": None,
        "scales": None,
        "params": {"n_clusters": 2, "seed": 0, "iters": 0,
                   "quantize": False, "quant_rows": 512},
    }
    return [source], [target], state


class TestEngineDescriptorCache:
    def test_ann_and_exact_never_alias_in_cache(self):
        source, target, state = _handcrafted_divergent_state()
        index = AnnIndex(source, target, (1.0,), state=state)
        engine = QueryEngine(index, fingerprint="fp", cache_size=64)
        with engine:
            exact_first = engine.query(0, k=1)
            assert exact_first.targets == (3,)
            ann = engine.query(0, k=1, mode="ann", nprobe=1)
            assert ann.targets == (0,)
            assert not ann.cached, "ann query must not hit the exact entry"
            exact_again = engine.query(0, k=1)
            assert exact_again.targets == (3,)
            assert exact_again.cached

    def test_reverse_order_does_not_alias_either(self):
        source, target, state = _handcrafted_divergent_state()
        index = AnnIndex(source, target, (1.0,), state=state)
        engine = QueryEngine(index, fingerprint="fp", cache_size=64)
        with engine:
            ann_first = engine.query(0, k=1, mode="ann", nprobe=1)
            assert ann_first.targets == (0,)
            exact = engine.query(0, k=1)
            assert exact.targets == (3,)
            assert not exact.cached
            ann_again = engine.query(0, k=1, mode="ann", nprobe=1)
            assert ann_again.cached and ann_again.targets == (0,)

    def test_distinct_nprobes_are_distinct_entries(self):
        source, target, state = _handcrafted_divergent_state()
        index = AnnIndex(source, target, (1.0,), state=state)
        engine = QueryEngine(index, fingerprint="fp", cache_size=64)
        with engine:
            narrow = engine.query(0, k=1, mode="ann", nprobe=1)
            wide = engine.query(0, k=1, mode="ann", nprobe=2)
            assert not wide.cached
            assert narrow.targets == (0,) and wide.targets == (3,)

    def test_explicit_default_nprobe_shares_the_resolved_entry(self):
        source, target, state = _handcrafted_divergent_state()
        index = AnnIndex(source, target, (1.0,), state=state)
        engine = QueryEngine(index, fingerprint="fp", cache_size=64)
        with engine:
            implicit = engine.query(0, k=1, mode="ann")  # default nprobe
            explicit = engine.query(
                0, k=1, mode="ann", nprobe=default_nprobe(2)
            )
            assert explicit.cached
            assert explicit.targets == implicit.targets

    def test_query_many_mixed_descriptors(self, rng):
        source, target = _embeddings(rng, n_target=90, ties=False)
        index = AnnIndex(source, target, (0.6, 0.4), n_clusters=9, seed=0)
        engine = QueryEngine(index, fingerprint="fp")
        exact = AlignmentIndex(source, target, (0.6, 0.4))
        with engine:
            results = engine.query_many(
                [(2, 3), (5, 3)], mode="ann", nprobe=9
            )
            expected_t, expected_s = exact.top_k([2, 5], k=3)
            for row, result in enumerate(results):
                assert result.targets == tuple(expected_t[row])
                assert result.scores == tuple(expected_s[row])

    def test_engine_stats_report_ann(self, rng):
        source, target = _embeddings(rng, n_target=90, ties=False)
        registry = MetricsRegistry()
        index = AnnIndex(source, target, (0.6, 0.4), n_clusters=9,
                         registry=registry)
        engine = QueryEngine(index, fingerprint="fp", registry=registry)
        with engine:
            engine.query(0, k=2, mode="ann", nprobe=3)
            stats = engine.stats()
        assert stats["ann"]["supported"] is True
        assert stats["ann"]["queries"] >= 1
        assert stats["ann"]["candidates_rescored"] >= 1

    def test_invalid_default_mode_fails_fast(self, rng):
        source, target = _embeddings(rng, n_target=60, ties=False)
        index = AlignmentIndex(source, target, (0.6, 0.4))
        with pytest.raises(AnnParameterError):
            QueryEngine(index, fingerprint="fp", default_mode="ann")


class TestShardedAnn:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_bitwise_across_shard_counts(self, rng, shards):
        source, target = _embeddings(rng, n_target=700, dims=(6, 6))
        state = build_ann_state(
            [np.asarray(t) for t in target], n_clusters=12, seed=3
        )
        exact = AlignmentIndex(source, target, (0.6, 0.4),
                               target_block_size=64)
        ann = AnnIndex(source, target, (0.6, 0.4), state=dict(state),
                       target_block_size=64)
        queries = rng.integers(0, 30, size=8)
        with ShardedIndex(
            source, target, (0.6, 0.4), shards=shards,
            target_block_size=64, workers=0, ann_state=dict(state),
        ) as sharded:
            assert sharded.supports_ann
            for k in (1, 5):
                # Full probe: bitwise equal to the exact index.
                got = sharded.top_k(queries, k=k, mode="ann", nprobe=12)
                expected = exact.top_k(queries, k=k)
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])
                # Partial probe: bitwise equal to the local AnnIndex.
                got = sharded.top_k(queries, k=k, mode="ann", nprobe=3)
                expected = ann.top_k(queries, k=k, mode="ann", nprobe=3)
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])

    def test_ex_path_healthy_matches_strict(self, rng):
        source, target = _embeddings(rng, n_target=500, dims=(5, 5))
        state = build_ann_state(
            [np.asarray(t) for t in target], n_clusters=8, seed=1
        )
        with ShardedIndex(
            source, target, (0.5, 0.5), shards=3, target_block_size=64,
            workers=0, ann_state=dict(state),
        ) as sharded:
            strict = sharded.top_k([1, 2], k=4, mode="ann", nprobe=4)
            targets, scores, meta = sharded.top_k_ex(
                [1, 2], k=4, mode="ann", nprobe=4
            )
            assert np.array_equal(targets, strict[0])
            assert np.array_equal(scores, strict[1])
            assert meta == {
                "degraded": False, "coverage": 1.0, "shards_down": (),
            }

    def test_down_shard_drops_its_candidates(self, rng):
        source, target = _embeddings(rng, n_target=500, dims=(5, 5))
        state = build_ann_state(
            [np.asarray(t) for t in target], n_clusters=8, seed=1
        )
        with ShardedIndex(
            source, target, (0.5, 0.5), shards=3, target_block_size=64,
            workers=0, ann_state=dict(state),
            breaker_kwargs={"failure_threshold": 1},
        ) as sharded:
            sharded.inject_fault("shard_kill", shard=0)
            targets, _, meta = sharded.top_k_ex(
                rng.integers(0, 30, size=6), k=5, mode="ann", nprobe=8
            )
            assert meta["degraded"] and 0 in meta["shards_down"]
            assert 0 < meta["coverage"] < 1
            start, stop = sharded.plan[0]
            answered = targets[targets >= 0]
            assert not ((answered >= start) & (answered < stop)).any()

    def test_batch_probing_only_empty_lists_pads_instead_of_503(self, rng):
        # Regression: the degrading path used to fail a batch whose probed
        # lists are all empty with a false "circuit breakers open" 503.
        source, target = _embeddings(rng, n_target=200, dims=(5, 5),
                                     ties=False)
        for layer in source:
            layer[:, 0] += 10.0
        state = build_ann_state(target, n_clusters=8, seed=1)
        # An extra, empty last cluster whose centroid wins every probe.
        winner = np.zeros((1, 10))
        winner[0, [0, 5]] = 1e3
        state["centroids"] = np.vstack([state["centroids"], winner])
        state["offsets"] = np.append(state["offsets"], 200)
        sources = np.arange(6)
        expected = AnnIndex(
            source, target, (0.6, 0.4), state=dict(state),
            target_block_size=64,
        ).top_k(sources, k=3, mode="ann", nprobe=1)
        assert np.all(expected[0] == -1)
        with ShardedIndex(
            source, target, (0.6, 0.4), shards=2, target_block_size=64,
            workers=0, ann_state=dict(state),
        ) as sharded:
            strict = sharded.top_k(sources, k=3, mode="ann", nprobe=1)
            targets, scores, meta = sharded.top_k_ex(
                sources, k=3, mode="ann", nprobe=1
            )
            for got in (strict, (targets, scores)):
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])
            assert meta == {
                "degraded": False, "coverage": 1.0, "shards_down": (),
            }
            with QueryEngine(sharded, fingerprint="fp", default_mode="ann",
                             default_nprobe=1) as engine:
                result = engine.query(0, k=3)
            assert not result.aligned
            assert not result.degraded and result.targets == ()

    @pytest.mark.parametrize("mode,nprobe", [("exact", None), ("ann", 8)])
    def test_strict_top_k_never_returns_a_partial_answer(self, rng, mode,
                                                         nprobe):
        source, target = _embeddings(rng, n_target=500, dims=(5, 5))
        state = build_ann_state(target, n_clusters=8, seed=1)
        sources = rng.integers(0, 30, size=6)
        with ShardedIndex(
            source, target, (0.5, 0.5), shards=3, target_block_size=64,
            workers=0, ann_state=dict(state),
            breaker_kwargs={"failure_threshold": 10},
        ) as sharded:
            sharded.inject_fault("shard_kill", shard=0)
            with pytest.raises(RuntimeError, match="unavailable") as excinfo:
                sharded.top_k(sources, k=5, mode=mode, nprobe=nprobe)
            assert status_for_error(excinfo.value) == 503
            # The same fault, the degrading path: an explicit answer.
            sharded.inject_fault("shard_kill", shard=0)
            targets, _, meta = sharded.top_k_ex(
                sources, k=5, mode=mode, nprobe=nprobe
            )
            start, stop = sharded.plan[0]
            assert meta["degraded"] and meta["shards_down"] == (0,)
            assert meta["coverage"] == (500 - (stop - start)) / 500
            answered = targets[targets >= 0]
            assert answered.size
            assert not ((answered >= start) & (answered < stop)).any()

    def test_no_ann_state_rejects_ann_mode(self, rng):
        source, target = _embeddings(rng, n_target=200, ties=False)
        with ShardedIndex(
            source, target, (0.6, 0.4), shards=2, workers=0,
            target_block_size=64,
        ) as sharded:
            assert not sharded.supports_ann
            with pytest.raises(AnnParameterError, match="no ANN tier"):
                sharded.top_k([0], k=1, mode="ann")


def _reference_candidates(prober, queries, k, nprobe):
    """The per-row candidate selection the cluster-grouped scan replaced.

    Every probed list is scanned at full batch height, then each row
    filters its own probed targets against its kth-largest lower bound.
    Returns one sorted array of original target ids per row.
    """
    probed = prober.probe(queries, nprobe)
    scanned = {}
    if prober.quantized:
        scan, radius = prober.scan_plan(queries)
        for cluster in np.unique(probed):
            start, stop = prober.offsets[cluster], prober.offsets[cluster + 1]
            block = prober.codes[start:stop].astype(scan.dtype)
            scanned[cluster] = (scan @ block.T).astype(np.float64)
    candidates = []
    for row, clusters in enumerate(probed):
        position = np.concatenate(
            [np.arange(prober.offsets[c], prober.offsets[c + 1])
             for c in clusters]
        ).astype(np.int64)
        if prober.quantized and position.size > k:
            raw = np.concatenate([scanned[c][row] for c in clusters])
            scales = prober._row_scales[position]
            upper = (raw + radius[row]) * scales
            lower = (raw - radius[row]) * scales
            kth = -np.partition(-lower, k - 1)[k - 1]
            position = position[upper >= kth]
        candidates.append(np.sort(prober.order[position]))
    return candidates


def _integer_embeddings(rng, n_source=30, n_target=300, dims=(5, 4)):
    """Entries in {-1, 0, 1}: exact scores, dense ties everywhere."""
    source = [rng.integers(-1, 2, (n_source, d)).astype(float) for d in dims]
    target = [rng.integers(-1, 2, (n_target, d)).astype(float) for d in dims]
    return source, target


def _state_with_empty_clusters(target, n_clusters, seed, quantize):
    """An IVF state whose odd clusters are empty yet probed (their random
    centroids compete like any other)."""
    concat = np.concatenate(target, axis=1)
    rng = np.random.default_rng(seed)
    assignment = 2 * rng.integers(0, n_clusters // 2, size=concat.shape[0])
    order = np.argsort(assignment, kind="stable").astype(np.int64)
    counts = np.bincount(assignment, minlength=n_clusters)
    codes = scales = None
    if quantize:
        codes, scales = quantize_int8(concat[order], quant_rows=32)
    return {
        "centroids": rng.normal(size=(n_clusters, concat.shape[1])),
        "offsets": np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        "order": order,
        "codes": codes,
        "scales": scales,
        "params": {"quant_rows": 32},
    }


class TestCandidateOracle:
    """The cluster-grouped scan keeps exactly the per-row candidates."""

    @pytest.mark.parametrize("quantize", [True, False])
    @pytest.mark.parametrize("data", ["normal", "integer"])
    @pytest.mark.parametrize("layout", ["kmeans", "empty_clusters"])
    def test_matches_per_row_reference(self, quantize, data, layout):
        rng = np.random.default_rng(23)
        if data == "normal":
            source, target = _embeddings(rng, n_target=300)
            weights = (0.6, 0.4)
        else:
            source, target = _integer_embeddings(rng)
            weights = (0.5, 0.25)
        if layout == "kmeans":
            state = build_ann_state(
                target, n_clusters=12, seed=1, quantize=quantize,
                quant_rows=32,
            )
        else:
            state = _state_with_empty_clusters(target, 12, 2, quantize)
        prober = AnnProber(state, n_target=300, dim=9)
        filtered = False
        for nprobe in (1, default_nprobe(12), 12):
            for batch in (np.arange(30), np.array([4])):
                queries = weighted_queries(source, weights, batch)
                # k = 40 leaves rows with <= k probed targets at nprobe=1.
                for k in (1, 5, 40):
                    rows, ids = prober.select_candidates(queries, k, nprobe)
                    expected = _reference_candidates(
                        prober, queries, k, nprobe
                    )
                    assert rows.size == sum(e.size for e in expected)
                    for row, want in enumerate(expected):
                        got = np.sort(ids[rows == row])
                        assert np.array_equal(got, want), (nprobe, k, row)
                    filtered |= rows.size < batch.size * 300
        # The margin filter did drop targets somewhere when quantized.
        assert filtered or not quantize


class TestProbe:
    @pytest.mark.parametrize("nprobe", [1, 3, 8])
    def test_matches_lexsort_reference_with_tied_centroids(self, nprobe):
        rng = np.random.default_rng(4)
        centroids = rng.integers(-1, 2, (8, 3)).astype(float)
        centroids[[5, 7]] = centroids[2]
        centroids[6] = centroids[0]
        state = {
            "centroids": centroids,
            "offsets": np.arange(9, dtype=np.int64),
            "order": np.arange(8, dtype=np.int64),
            "codes": None,
            "scales": None,
            "params": {},
        }
        prober = AnnProber(state, n_target=8, dim=3)
        queries = rng.integers(-1, 2, (40, 3)).astype(float)
        scores = queries @ centroids.T
        ids = np.arange(8)
        expected = np.array(
            [np.lexsort((ids, -row))[:nprobe] for row in scores]
        )
        assert np.array_equal(prober.probe(queries, nprobe), expected)


class TestMemory:
    def test_ann_query_never_holds_a_batch_by_target_matrix(self):
        # 256 queries x 20000 targets x 3 layers: one (batch x n_target)
        # float64 matrix is 41 MB.  The scan touches only probed lists
        # and the rescoring keeps only the candidates' scores per block.
        rng = np.random.default_rng(16)
        source = [rng.standard_normal((256, 16)) for _ in range(3)]
        target = [rng.standard_normal((20_000, 16)) for _ in range(3)]
        index = AnnIndex(source, target, [0.5, 0.3, 0.2])
        batch = np.arange(256)
        index.top_k(batch, k=10, mode="ann")
        tracemalloc.start()
        try:
            index.top_k(batch, k=10, mode="ann")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"ann top_k peaked at {peak / 2**20:.1f} MiB"


class TestRescoring:
    def test_full_probe_scores_no_exact_block(self, monkeypatch):
        # Candidates are rescored pair by pair: a full-probe call over
        # 256 queries x 20000 targets runs none of the exact index's 40
        # block GEMMs, and still equals the exact answer bitwise.
        import repro.core.scoring as scoring_module

        rng = np.random.default_rng(16)
        source = [rng.standard_normal((256, 16)) for _ in range(3)]
        target = [rng.standard_normal((20_000, 16)) for _ in range(3)]
        index = AnnIndex(source, target, [0.5, 0.3, 0.2])
        calls = []
        score_block = scoring_module.score_block

        def counted(*args):
            calls.append(args)
            return score_block(*args)

        monkeypatch.setattr(scoring_module, "score_block", counted)
        batch = np.arange(256)
        got_t, got_s = index.top_k(
            batch, k=10, mode="ann", nprobe=index.n_clusters
        )
        assert len(calls) == 0
        expected_t, expected_s = index.top_k(batch, k=10)
        assert len(calls) > 0
        np.testing.assert_array_equal(got_t, expected_t)
        np.testing.assert_array_equal(got_s, expected_s)


class TestAnnPadding:
    def test_pads_rows_with_no_candidates(self):
        # Cluster 1 is empty and its centroid wins for source 1, so with
        # nprobe=1 that row has no candidates at all.
        target = np.array([[5.0, 0.0], [3.0, 0.0], [1.0, 0.0]])
        source = np.array([[1.0, 0.0], [0.0, 1.0]])
        state = {
            "centroids": np.array([[1.0, 0.0], [0.0, 1.0]]),
            "offsets": np.array([0, 3, 3], dtype=np.int64),
            "order": np.arange(3, dtype=np.int64),
            "codes": None,
            "scales": None,
            "params": {},
        }
        index = AnnIndex([source], [target], (1.0,), state=state)
        targets, scores = index.top_k([0, 1], k=2, mode="ann", nprobe=1)
        assert targets[0].tolist() == [0, 1]
        assert scores[0].tolist() == [5.0, 3.0]
        assert targets[1].tolist() == [-1, -1]
        assert np.isneginf(scores[1]).all()


class TestHttpAnnEndToEnd:
    @pytest.fixture
    def ann_server(self, rng, tmp_path):
        from repro.serving import AlignmentServer

        source, target = _embeddings(rng, n_target=150, ties=False)
        path = export_artifact(
            str(tmp_path / "artifact"), source, target, [0.6, 0.4],
            ann_clusters=6, ann_seed=0,
        )
        artifact = load_artifact(path)
        engine = QueryEngine.from_artifact(artifact)
        with AlignmentServer(engine) as server:
            yield server

    def test_full_probe_matches_exact_over_http(self, ann_server):
        from repro.serving import HTTPClient

        client = HTTPClient(ann_server.url)
        exact = client.query(3, k=4)
        ann = client.query(3, k=4, mode="ann", nprobe=6)
        assert ann["targets"] == exact["targets"]
        assert ann["scores"] == exact["scores"]

    def test_post_batch_with_descriptor(self, ann_server):
        from repro.serving import HTTPClient

        client = HTTPClient(ann_server.url)
        exact = client.query_many([(1, 3), (2, 3)])
        ann = client.query_many([(1, 3), (2, 3)], mode="ann", nprobe=6)
        assert [r["targets"] for r in ann] == [r["targets"] for r in exact]

    def test_bad_parameters_are_400(self, ann_server):
        from repro.serving import HTTPClient, ServingClientError

        client = HTTPClient(ann_server.url, max_retries=0)
        for kwargs in (
            {"mode": "warp"},
            {"mode": "ann", "nprobe": 99},
            {"mode": "exact", "nprobe": 2},
            {"mode": "ann", "nprobe": 0},
        ):
            with pytest.raises(ServingClientError) as excinfo:
                client.query(0, k=1, **kwargs)
            assert excinfo.value.status == 400, kwargs


def _probed_pairs(prober, queries, nprobe):
    """Every (query row, original target id) pair of the probed lists."""
    rows, ids = [], []
    for row, clusters in enumerate(prober.probe(queries, nprobe)):
        for cluster in clusters:
            span = prober.order[
                prober.offsets[cluster]:prober.offsets[cluster + 1]
            ]
            rows.append(np.full(span.size, row, dtype=np.int64))
            ids.append(span)
    return np.concatenate(rows), np.concatenate(ids)


def _check_against_float64_oracle(index, sources, k, nprobe):
    """The int8 scan's candidates hold every probed pair scoring at least
    the row's true kth (ties included), and the ANN answer equals the
    canonical top-k of every probed pair rescored in float64."""
    queries = weighted_queries(
        index.exact._source, index.exact._weights, sources
    )
    rows, ids = index.prober.select_candidates(queries, k, nprobe)
    all_rows, all_ids = _probed_pairs(index.prober, queries, nprobe)
    scores = index.exact.pair_scores(sources[all_rows], all_ids)
    for row in range(sources.size):
        mine = all_rows == row
        row_scores = scores[mine]
        kth = -np.inf
        if row_scores.size > k:
            kth = -np.partition(-row_scores, k - 1)[k - 1]
        must = set(all_ids[mine][row_scores >= kth].tolist())
        assert must <= set(ids[rows == row].tolist()), (row, k, nprobe)
    got = index.top_k(sources, k, mode="ann", nprobe=nprobe)
    expected = canonical_top_k(all_rows, all_ids, scores, sources.size, k)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])  # bitwise


class TestMarginSoundness:
    """The float32 int8 scan brackets every canonical score."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # Ordinary rows, near-zero ones, float32-subnormal once cast,
        # flushed to zero by the cast, and exactly zero.
        magnitude=st.sampled_from([1.0, 1e-20, 1e-41, 1e-47, 0.0]),
        integer=st.booleans(),
        k=st.integers(1, 8),
        nprobe=st.integers(1, 6),
    )
    def test_candidates_hold_the_probed_top_k(
        self, seed, magnitude, integer, k, nprobe
    ):
        rng = np.random.default_rng(seed)
        if integer:  # dense ties at every kth
            source, target = _integer_embeddings(
                rng, n_source=12, n_target=120, dims=(4, 3)
            )
        else:  # duplicate target rows tie too
            source, target = _embeddings(
                rng, n_source=12, n_target=120, dims=(4, 3)
            )
        for layer in source:
            layer[:4] *= magnitude
        index = AnnIndex(source, target, (0.6, 0.4), n_clusters=6,
                         seed=seed % 97, quant_rows=16)
        _check_against_float64_oracle(index, np.arange(12), k, nprobe)
        # The near-zero rows alone: the whole batch scans at that scale.
        _check_against_float64_oracle(index, np.arange(4), k, nprobe)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 64),
        target_scale=st.sampled_from([1.0, 1e-30, 1e30]),
        # float32-subnormal query entries lose bits in the cast.
        query_scale=st.sampled_from([1.0, 1e-41, 1e-44, 1e25]),
    )
    def test_bounds_hold_at_worst_case_dequantization(
        self, seed, width, target_scale, query_scale
    ):
        # Every target entry sits halfway between two codes and every
        # query entry leans the way its target rounded, so each row's
        # own pair meets the dequantization bound exactly and only the
        # margin's rounding and underflow terms keep it bracketed.
        from repro.core.scoring import pair_scores

        rng = np.random.default_rng(seed)
        n = 40
        target = rng.integers(-126, 126, (n, width)) + 0.5
        target[0, 0] = 127.0  # fixes the block scale at target_scale/127
        target *= target_scale / 127
        state = build_ann_state([target], n_clusters=1, quant_rows=n)
        prober = AnnProber(state, n_target=n, dim=width)
        error = target - state["scales"][0] * state["codes"]
        queries = np.where(error < 0, -1.0, 1.0) * rng.uniform(
            0.5, 1.0, (n, width)
        ) * query_scale
        scan, radius = prober.scan_plan(queries)
        rows = np.arange(n)
        upper, lower = prober._bounds(scan, radius, rows, 0, n)
        scores = pair_scores(
            [queries], [target], [1.0], np.repeat(rows, n), np.tile(rows, n)
        ).reshape(n, n)
        assert (lower <= scores).all()
        assert (scores <= upper).all()

    @pytest.mark.parametrize(
        "factor, dtype", [(0.999, np.float32), (1.001, np.float64)]
    )
    def test_float32_only_below_the_overflow_cutover(self, factor, dtype):
        rng = np.random.default_rng(8)
        source, target = _embeddings(rng, n_source=12, n_target=120,
                                     dims=(4, 3))
        weights = (0.6, 0.4)
        # 127·D·max|q| against float32's maximum over the headroom.
        cutover = (
            float(np.finfo(np.float32).max) / SELECT_HEADROOM / (127 * 7)
        )
        peak = np.abs(weighted_queries(source, weights, np.arange(12))).max()
        source = [layer * (factor * cutover / peak) for layer in source]
        index = AnnIndex(source, target, weights, n_clusters=6, seed=1,
                         quant_rows=16)
        queries = weighted_queries(source, weights, np.arange(12))
        scan, radius = index.prober.scan_plan(queries)
        assert scan.dtype == dtype
        assert np.isfinite(radius).all()
        for k, nprobe in ((1, 2), (5, 6)):
            _check_against_float64_oracle(index, np.arange(12), k, nprobe)


class TestPoisonedSourceRows:
    def test_full_probe_matches_exact_without_warnings(self):
        # A NaN and an inf source entry: exact answers those rows with
        # -inf scores, and full-probe ANN must return the same bits.
        rng = np.random.default_rng(5)
        source = [rng.standard_normal((20, 8))]
        target = [rng.standard_normal((300, 8))]
        source[0][3, 2] = np.nan
        source[0][5, 6] = np.inf
        index = AnnIndex(source, target, [1.0], n_clusters=8)
        batch = np.arange(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            expected_t, expected_s = index.top_k(batch, k=4)
            got_t, got_s = index.top_k(batch, k=4, mode="ann", nprobe=8)
        assert np.array_equal(got_t, expected_t)
        assert np.array_equal(got_s, expected_s)
        assert np.isneginf(got_s[[3, 5]]).all()


def _listed_state(target, sizes, quant_rows, seed):
    """A quantized IVF state over ``target`` rows in id order, cut into
    inverted lists of ``sizes`` (zeros allowed), with random centroids."""
    codes, scales = quantize_int8(target, quant_rows=quant_rows)
    return {
        "centroids": np.random.default_rng(seed).normal(
            size=(len(sizes), target.shape[1])
        ),
        "offsets": np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        "order": np.arange(target.shape[0], dtype=np.int64),
        "codes": codes,
        "scales": scales,
        "params": {"quant_rows": quant_rows},
    }


def _probed_per_row(prober, queries, nprobe):
    """Every probed original target id, one sorted array per row."""
    rows, ids = _probed_pairs(prober, queries, nprobe)
    return [np.sort(ids[rows == row]) for row in range(queries.shape[0])]


def _expected_hits(prober, queries, k, nprobe):
    """``(hits, raised)``: the pairs whose upper bound reaches their row's
    floor, and whether the floor was raised.  The floor is the kth-largest
    lower bound over the row's nearest probed list (probe slot 0; -inf
    below k targets there).  Past ``_FLOOR_HITS·k`` hits per row it is
    raised to the largest, over the row's probed lists of at least k
    targets, of the least ``scale·(x - radius)`` over the list's blocks,
    x the list's kth-largest scan value for the row.  A poisoned row
    hits every pair."""
    from repro.serving.ann import _FLOOR_HITS

    scan, radius = prober.scan_plan(queries)
    probed = prober.probe(queries, nprobe)
    nearest, best, uppers = [], [], []
    with np.errstate(invalid="ignore"):  # a poisoned row's NaN scores
        raw = {
            c: (scan @ prober.codes[
                prober.offsets[c]:prober.offsets[c + 1]
            ].astype(scan.dtype).T).astype(np.float64)
            for c in np.unique(probed)
        }
        for row, clusters in enumerate(probed):
            floors, row_uppers = [], []
            for c in clusters:
                scales = prober._row_scales[
                    prober.offsets[c]:prober.offsets[c + 1]
                ]
                scores = raw[c][row]
                row_uppers.append((scores + radius[row]) * scales)
                if scores.size < k:
                    floors.append((-np.inf, -np.inf))
                    continue
                lower = (scores - radius[row]) * scales
                kth = -np.partition(-scores, k - 1)[k - 1]
                floors.append((
                    -np.partition(-lower, k - 1)[k - 1],
                    ((kth - radius[row]) * scales).min(),
                ))
            nearest.append(floors[0][0])
            best.append(max(floor for _, floor in floors))
            uppers.append(np.concatenate(row_uppers))

    def count(floor):
        return sum(
            upper.size if not np.isfinite(r) else int((upper >= f).sum())
            for upper, f, r in zip(uppers, floor, radius)
        )

    hits = count(nearest)
    if hits <= _FLOOR_HITS * k * queries.shape[0]:
        return hits, False
    return count(np.maximum(nearest, best)), True


def _check_selection(prober, queries, k, nprobe):
    """Candidates per row equal :func:`_reference_candidates` (every
    probed pair for a poisoned row, or for a batch with no scan plan),
    and the prefilter hit exactly the pairs reaching the floor."""
    registry = MetricsRegistry()
    prober.registry = registry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows, ids = prober.select_candidates(queries, k, nprobe)
    every = _probed_per_row(prober, queries, nprobe)
    plan = prober.scan_plan(queries)
    if plan is None:
        expected = every
        assert registry.get("serving.ann.prefilter_hits") is None
    else:
        healthy = np.isfinite(plan[1])
        with np.errstate(invalid="ignore"):
            reference = _reference_candidates(prober, queries, k, nprobe)
        expected = [
            want if ok else all_ids
            for want, all_ids, ok in zip(reference, every, healthy)
        ]
        hits, _ = _expected_hits(prober, queries, k, nprobe)
        assert registry.counter("serving.ann.prefilter_hits").value == hits
    assert rows.size == sum(e.size for e in expected)
    for row, want in enumerate(expected):
        got = np.sort(ids[rows == row])
        assert np.array_equal(got, want), (row, k, nprobe)
    return rows, ids


class TestFloorSelection:
    """Each row's floor, and the float32 prefilter against it, keep
    exactly the per-row reference candidates at their edges, and hit
    exactly the pairs whose upper bound reaches the floor."""

    @pytest.mark.parametrize("k", [3, 5, 12])
    def test_lists_shorter_than_k(self, k):
        rng = np.random.default_rng(31)
        sizes = [3, 40, 2, 35, 60, 4, 20, 36]
        target = rng.normal(size=(sum(sizes), 6))
        prober = AnnProber(
            _listed_state(target, sizes, 16, 1), n_target=200, dim=6
        )
        queries = rng.normal(size=(40, 6))
        probed = np.diff(prober.offsets)[prober.probe(queries, 3)]
        assert (probed < k).any() and (probed >= k).any()
        _check_selection(prober, queries, k, 3)

    def test_probed_empty_lists(self):
        rng = np.random.default_rng(32)
        sizes = [0, 50, 0, 70, 0, 80]
        target = rng.normal(size=(200, 6))
        prober = AnnProber(
            _listed_state(target, sizes, 16, 2), n_target=200, dim=6
        )
        queries = rng.normal(size=(40, 6))
        empty = np.diff(prober.offsets)[prober.probe(queries, 3)] == 0
        assert empty[:, 0].any() and empty[:, 1:].any()
        for k in (1, 4, 60):
            _check_selection(prober, queries, k, 3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_all_zero_quant_blocks(self, sign):
        # Positive targets and queries of one sign: every floor is
        # positive, or every floor is negative, while the two all-zero
        # blocks have scale 0 and an upper bound of exactly 0.
        rng = np.random.default_rng(33)
        sizes = [30, 50, 40, 80]
        target = np.abs(rng.normal(size=(200, 6)))
        target[32:64] = 0.0
        prober = AnnProber(
            _listed_state(target, sizes, 16, 3), n_target=200, dim=6
        )
        assert (prober.scales == 0).sum() == 2
        queries = sign * np.abs(rng.normal(size=(30, 6)))
        for k, nprobe in ((1, 2), (5, 3), (20, 4)):
            rows, ids = _check_selection(prober, queries, k, nprobe)
            zero_block = (ids >= 32) & (ids < 64)
            # A zero-block pair beats every negative kth.
            assert zero_block.any() == (sign < 0)

    def test_poisoned_rows(self):
        rng = np.random.default_rng(34)
        sizes = [30, 50, 40, 80]
        target = rng.normal(size=(200, 6))
        prober = AnnProber(
            _listed_state(target, sizes, 16, 4), n_target=200, dim=6
        )
        queries = rng.normal(size=(20, 6))
        queries[3, 2] = np.nan
        queries[5, 0] = np.inf
        queries[6, 4] = -np.inf
        for k, nprobe in ((1, 2), (4, 3), (10, 4)):
            _check_selection(prober, queries, k, nprobe)

    @pytest.mark.parametrize(
        "factor, dtype", [(0.999, np.float32), (1.001, np.float64)]
    )
    def test_either_side_of_the_float32_cutover(self, factor, dtype):
        rng = np.random.default_rng(35)
        sizes = [30, 50, 40, 80]
        target = rng.normal(size=(200, 6))
        prober = AnnProber(
            _listed_state(target, sizes, 16, 5), n_target=200, dim=6
        )
        queries = rng.normal(size=(20, 6))
        cutover = float(np.finfo(np.float32).max) / SELECT_HEADROOM / (127 * 6)
        queries *= factor * cutover / np.abs(queries).max()
        assert prober.scan_plan(queries)[0].dtype == dtype
        for k, nprobe in ((1, 2), (4, 3), (10, 4)):
            _check_selection(prober, queries, k, nprobe)

    def test_no_scan_plan_keeps_every_probed_pair(self):
        rng = np.random.default_rng(36)
        sizes = [30, 50, 40, 80]
        target = rng.normal(size=(200, 6))
        prober = AnnProber(
            _listed_state(target, sizes, 16, 6), n_target=200, dim=6
        )
        queries = rng.normal(size=(20, 6)) * 1e305
        assert prober.scan_plan(queries) is None
        _check_selection(prober, queries, 3, 2)

    def test_weak_nearest_floor_is_raised(self):
        # Random centroids say nothing about which list holds the top-k,
        # so the nearest list's kth lets most pairs through and the
        # floor is raised from every probed list.
        rng = np.random.default_rng(38)
        target = rng.normal(size=(800, 96))
        prober = AnnProber(
            _listed_state(target, [100] * 8, 256, 8), n_target=800, dim=96
        )
        queries = rng.normal(size=(30, 96))
        for k in (1, 2):
            assert _expected_hits(prober, queries, k, 8)[1]
            _check_selection(prober, queries, k, 8)

    def test_row_slices_keep_the_reference_candidates(self, monkeypatch):
        import repro.serving.ann as ann_module

        rng = np.random.default_rng(37)
        sizes = [30, 50, 40, 80]
        target = rng.normal(size=(200, 6))
        prober = AnnProber(
            _listed_state(target, sizes, 16, 7), n_target=200, dim=6
        )
        queries = rng.normal(size=(20, 6))
        queries[7, 1] = np.nan
        # Slices of 2 or 3 rows, and one row per slice.
        for pairs in (400, 1):
            monkeypatch.setattr(ann_module, "_SCAN_PAIRS", pairs)
            for k, nprobe in ((1, 2), (4, 3)):
                _check_selection(prober, queries, k, nprobe)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
        magnitude=st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30]),
    )
    def test_code_floors_are_the_least_reaching_values(
        self, seed, dtype, magnitude
    ):
        # The value just below t falls short of the floor (soundness);
        # in float32 t itself reaches it, so t is the least such value.
        # float64 may stop short of that where floor/scale and radius
        # nearly cancel (a lower t keeps more pairs).
        from repro.serving.ann import _bracket, _code_floors

        rng = np.random.default_rng(seed)
        n = 400
        floor = rng.normal(size=n) * magnitude
        floor[rng.random(n) < 0.1] = -np.inf
        radius = rng.uniform(0.0, 2.0, n) * magnitude
        scales = rng.choice([0.0, 1e-3, 0.5, 3.0], n) * rng.uniform(
            0.5, 1.0, n
        )
        code = _code_floors(floor, radius, scales, np.dtype(dtype))
        assert code.dtype == dtype
        zero = scales == 0
        np.testing.assert_array_equal(
            code[zero], np.where(floor[zero] > 0, np.inf, -np.inf)
        )
        assert np.isneginf(code[np.isneginf(floor)]).all()
        finite = np.isfinite(code)
        below = np.nextafter(code[finite], dtype(-np.inf))
        upper = _bracket(below, radius[finite], scales[finite])
        assert (upper < floor[finite]).all()
        if dtype == np.float32:
            upper = _bracket(code[finite], radius[finite], scales[finite])
            assert (upper >= floor[finite]).all()
