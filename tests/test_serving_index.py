"""Tests for the pruned exact top-k AlignmentIndex.

The load-bearing property (the serving layer's correctness contract):
for a fixed index, **pruned top-k is bit-identical to dense top-k** —
targets AND scores — for every seed, block size, and k, including exact
score ties and k == n_target.  Batch composition must not matter either.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.streaming import streaming_top_k
from repro.observability import MetricsRegistry
from repro.serving import AlignmentIndex, export_artifact, load_artifact

WEIGHTS = [0.7, 0.3]


def make_embeddings(seed, n_source=40, n_target=157, dims=(12, 6)):
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((n_source, d)) for d in dims]
    target = [rng.standard_normal((n_target, d)) for d in dims]
    return source, target


def tied_embeddings(seed, n_source=20, n_unique=23, copies=3, dims=(6, 4)):
    """Targets with exact duplicate rows → exact score ties everywhere."""
    rng = np.random.default_rng(seed)
    source = [rng.standard_normal((n_source, d)) for d in dims]
    unique = [rng.standard_normal((n_unique, d)) for d in dims]
    target = [np.tile(u, (copies, 1)) for u in unique]
    return source, target


def canonical_reference(index, k, sources=None):
    """Brute-force answer: the index's own full score rows, each ordered
    by a full-row lexsort (descending score, ascending id)."""
    if sources is None:
        sources = np.arange(index.n_source)
    rows = index.score_rows(sources)
    ids = np.arange(index.n_target)
    targets = np.empty((rows.shape[0], k), dtype=np.int64)
    scores = np.empty((rows.shape[0], k))
    for row in range(rows.shape[0]):
        order = np.lexsort((ids, -rows[row]))[:k]
        targets[row] = order
        scores[row] = rows[row, order]
    return targets, scores


class TestPrunedEqualsDense:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("block_size", [16, 37, 64, 157, 500])
    def test_bit_identical_across_block_sizes(self, seed, block_size):
        source, target = make_embeddings(seed)
        index = AlignmentIndex(source, target, WEIGHTS,
                               target_block_size=block_size)
        batch = np.arange(index.n_source)
        for k in (1, 3, 10, index.n_target):
            pruned_t, pruned_s = index.top_k(batch, k=k, prune=True)
            dense_t, dense_s = index.top_k(batch, k=k, prune=False)
            np.testing.assert_array_equal(pruned_t, dense_t)
            np.testing.assert_array_equal(pruned_s, dense_s)
            ref_t, ref_s = canonical_reference(index, k)
            np.testing.assert_array_equal(pruned_t, ref_t)
            np.testing.assert_array_equal(pruned_s, ref_s)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("block_size", [5, 23, 69])
    def test_bit_identical_with_exact_ties(self, seed, block_size):
        source, target = tied_embeddings(seed)
        index = AlignmentIndex(source, target, WEIGHTS,
                               target_block_size=block_size)
        batch = np.arange(index.n_source)
        for k in (1, 2, 7, index.n_target):
            pruned_t, pruned_s = index.top_k(batch, k=k, prune=True)
            ref_t, ref_s = canonical_reference(index, k)
            np.testing.assert_array_equal(pruned_t, ref_t)
            np.testing.assert_array_equal(pruned_s, ref_s)

    def test_canonical_tie_order_is_ascending_id(self):
        source, target = tied_embeddings(11, copies=3)
        index = AlignmentIndex(source, target, WEIGHTS, target_block_size=10)
        n_unique = target[0].shape[0] // 3
        targets, scores = index.top_k(np.arange(index.n_source), k=3)
        # Each target row is duplicated 3x, so the top-3 of every source
        # is one duplicate class: equal scores, ids ascending.
        for row in range(targets.shape[0]):
            assert scores[row, 0] == scores[row, 1] == scores[row, 2]
            assert set(np.diff(np.sort(targets[row]))) == {n_unique}
            assert list(targets[row]) == sorted(targets[row])

    def test_topk_is_prefix_of_topk_plus_one(self):
        source, target = tied_embeddings(7)
        index = AlignmentIndex(source, target, WEIGHTS, target_block_size=8)
        batch = np.arange(index.n_source)
        previous_t, previous_s = index.top_k(batch, k=1)
        for k in range(2, 9):
            targets, scores = index.top_k(batch, k=k)
            np.testing.assert_array_equal(targets[:, :k - 1], previous_t)
            np.testing.assert_array_equal(scores[:, :k - 1], previous_s)
            previous_t, previous_s = targets, scores

    def test_k_clamped_to_n_target(self):
        source, target = make_embeddings(0, n_target=9)
        index = AlignmentIndex(source, target, WEIGHTS, target_block_size=4)
        targets, _ = index.top_k([0, 1], k=10_000)
        assert targets.shape == (2, 9)
        assert sorted(targets[0]) == list(range(9))


def integer_embeddings(seed, n_source=12, n_target=61, dims=(3, 2)):
    """Entries in {-1, 0, 1}: every score is an exact small multiple of
    the weights' binary fractions, so ties are everywhere, including at
    the kth boundary and across block boundaries."""
    rng = np.random.default_rng(seed)
    source = [rng.integers(-1, 2, (n_source, d)).astype(float) for d in dims]
    target = [rng.integers(-1, 2, (n_target, d)).astype(float) for d in dims]
    return source, target


class TestAgainstBruteForce:
    """``top_k`` against an independent reference: full score rows from
    ``score_rows`` and a full-row lexsort per row."""

    def assert_matches(self, index, k, sources=None):
        if sources is None:
            sources = np.arange(index.n_source)
        ref_t, ref_s = canonical_reference(index, k, sources)
        for prune in (True, False):
            got_t, got_s = index.top_k(sources, k=k, prune=prune)
            np.testing.assert_array_equal(got_t, ref_t)
            np.testing.assert_array_equal(got_s, ref_s)

    def test_tie_at_kth_boundary_straddles_two_blocks(self):
        # One layer, query (1, 0): a target's score is its first entry.
        # Block 0 = ids 0-3, block 1 = ids 4-7; the 3rd-best score (3.0)
        # is shared by id 2 (block 0) and ids 4, 7 (block 1), and the
        # running kth after block 0 (2.0) sits below it.
        xs = [5.0, 1.0, 3.0, 2.0, 3.0, 0.0, 4.0, 3.0]
        target = [np.array([[x, 0.0] for x in xs])]
        source = [np.array([[1.0, 0.0], [0.5, 0.0]])]
        index = AlignmentIndex(source, target, [1.0], target_block_size=4)
        targets, scores = index.top_k([0, 1], k=3)
        np.testing.assert_array_equal(targets, [[0, 6, 2], [0, 6, 2]])
        np.testing.assert_array_equal(scores[0], [5.0, 4.0, 3.0])
        for k in range(1, 9):
            self.assert_matches(index, k)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("block_size", [1, 2, 7, 16, 61])
    def test_integer_scores_with_dense_ties(self, seed, block_size):
        source, target = integer_embeddings(seed)
        index = AlignmentIndex(source, target, [0.5, 0.25],
                               target_block_size=block_size)
        for k in (1, 2, 5, 9, 30, index.n_target):
            self.assert_matches(index, k)

    def test_block_smaller_than_k(self):
        # kth stays -inf until k targets have been seen: every entry of
        # the first blocks survives.
        source, target = integer_embeddings(7)
        index = AlignmentIndex(source, target, [0.5, 0.25],
                               target_block_size=3)
        for k in (4, 10, 25):
            self.assert_matches(index, k)

    def test_k_equals_n_target(self):
        source, target = make_embeddings(13, n_target=50)
        index = AlignmentIndex(source, target, WEIGHTS, target_block_size=8)
        self.assert_matches(index, index.n_target)

    def test_fully_sanitized_rows(self):
        source, target = make_embeddings(14, n_source=6, n_target=40)
        source[0][0, 2] = np.nan
        source[1][1, 4] = np.inf
        index = AlignmentIndex(source, target, WEIGHTS, target_block_size=9)
        for k in (1, 3, index.n_target):
            self.assert_matches(index, k)
        _, scores = index.top_k(np.arange(6), k=3)
        assert np.all(np.isneginf(scores[:2]))

    def test_single_source_is_padded(self):
        source, target = integer_embeddings(15)
        index = AlignmentIndex(source, target, [0.5, 0.25],
                               target_block_size=5)
        for node in (0, 5, 11):
            for k in (1, 4, index.n_target):
                self.assert_matches(index, k, np.array([node]))


class TestMemory:
    def test_top_k_never_holds_the_full_score_matrix(self):
        # 256 queries x 20000 targets x 3 layers: the full score matrix
        # alone is 41 MB of float64; block-by-block selection keeps the
        # transient to a few blocks plus the surviving candidates.
        rng = np.random.default_rng(16)
        source = [rng.standard_normal((256, 16)) for _ in range(3)]
        target = [rng.standard_normal((20_000, 16)) for _ in range(3)]
        index = AlignmentIndex(source, target, [0.5, 0.3, 0.2])
        batch = np.arange(256)
        index.top_k(batch, k=10)
        tracemalloc.start()
        try:
            index.top_k(batch, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"top_k peaked at {peak / 2**20:.1f} MiB"


class TestBatchInvariance:
    def test_single_equals_batch_row(self):
        source, target = make_embeddings(5)
        index = AlignmentIndex(source, target, WEIGHTS, target_block_size=50)
        batch_t, batch_s = index.top_k(np.arange(index.n_source), k=4)
        for node in (0, 7, 39):
            single_t, single_s = index.top_k(node, k=4)
            np.testing.assert_array_equal(single_t[0], batch_t[node])
            np.testing.assert_array_equal(single_s[0], batch_s[node])

    def test_answer_independent_of_batch_composition(self):
        source, target = make_embeddings(6)
        index = AlignmentIndex(source, target, WEIGHTS, target_block_size=64)
        full_t, full_s = index.top_k(np.arange(index.n_source), k=3)
        for batch in ([4, 9], [9, 0, 17, 33, 4], list(range(10, 30))):
            got_t, got_s = index.top_k(batch, k=3)
            np.testing.assert_array_equal(got_t, full_t[batch])
            np.testing.assert_array_equal(got_s, full_s[batch])

    def test_realistic_width_guarantee(self):
        # 3 x 64 dims, 512-column blocks and a 32-column tail block: BLAS
        # picks the GEMM kernel by shape here, so a lone query and the
        # same source inside a 256-row batch may round differently.  The
        # GEMMs only select; reported scores are canonical per pair, so
        # targets, tie order and score bits must not move.
        rng = np.random.default_rng(17)

        def unit_rows(n):
            rows = rng.standard_normal((n, 64))
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)

        source = [unit_rows(300) for _ in range(3)]
        target = [unit_rows(544) for _ in range(3)]
        for layer in target:
            # A tie spanning a full block and the tail block.
            layer[[100, 530]] = layer[7]
        # Sources whose top-10 holds the tie.
        source[0][:4] = target[0][7]
        index = AlignmentIndex(source, target, [0.5, 0.3, 0.2])
        assert index._block_bounds[-1] == (512, 544)
        batch_t, batch_s = index.top_k(np.arange(256), k=10)
        for node in range(0, 256, 4):
            lone_t, lone_s = index.top_k(node, k=10)
            np.testing.assert_array_equal(lone_t[0], batch_t[node])
            np.testing.assert_array_equal(lone_s[0], batch_s[node])
        assert {7, 100, 530} <= set(batch_t[0].tolist())
        other = np.random.default_rng(3).permutation(300)[:256]
        other_t, other_s = index.top_k(other, k=10)
        common = other < 256
        np.testing.assert_array_equal(other_t[common], batch_t[other[common]])
        np.testing.assert_array_equal(other_s[common], batch_s[other[common]])


class TestPruning:
    def test_pruning_actually_skips_blocks(self):
        # One block of huge-norm targets dominates every top-1: after it
        # is scored, every other block's bound falls below the kth best.
        rng = np.random.default_rng(8)
        source = [rng.standard_normal((30, 10))]
        target = [rng.standard_normal((400, 10))]
        target[0][:40] *= 100.0
        registry = MetricsRegistry()
        index = AlignmentIndex(source, target, [1.0], target_block_size=40,
                               registry=registry)
        pruned_t, pruned_s = index.top_k(np.arange(30), k=1, prune=True)
        assert registry.get("serving.index.blocks_pruned").value > 0
        dense_t, dense_s = index.top_k(np.arange(30), k=1, prune=False)
        np.testing.assert_array_equal(pruned_t, dense_t)
        np.testing.assert_array_equal(pruned_s, dense_s)

    def test_metrics_recorded(self):
        source, target = make_embeddings(2)
        registry = MetricsRegistry()
        index = AlignmentIndex(source, target, WEIGHTS,
                               target_block_size=32, registry=registry)
        index.top_k([0, 1, 2], k=2)
        names = registry.names("serving.index")
        assert "serving.index.queries" in names
        assert "serving.index.blocks_scored" in names
        assert "serving.index.query_time" in names
        assert registry.get("serving.index.queries").value == 3


def wide_embeddings(seed):
    return make_embeddings(seed, dims=(64, 32))


class TestStreamingParity:
    @pytest.mark.parametrize("make,width", [
        (make_embeddings, None),
        (integer_embeddings, None),
        (integer_embeddings, 7),
        (wide_embeddings, 7),
        (wide_embeddings, 64),
    ], ids=["float-full", "integer-full", "integer-7", "float-7", "float-64"])
    def test_full_width_index_is_bitwise_streaming(self, make, width):
        # Both paths report canonical per-pair scores, so they match bit
        # for bit at any block width, with float embeddings wide enough
        # for BLAS to round differently by block shape.
        source, target = make(10)
        index = AlignmentIndex(source, target, WEIGHTS,
                               target_block_size=width or target[0].shape[0])
        expected_t, expected_s = streaming_top_k(source, target, WEIGHTS, k=5)
        got_t, got_s = index.top_k(np.arange(index.n_source), k=5)
        np.testing.assert_array_equal(expected_s, got_s)
        np.testing.assert_array_equal(expected_t, got_t)


def near_tie_embeddings():
    """Unit rows with target groups 0 or 1 ULP apart: ids 63 | 64 and
    65 straddle the block-64 edge, and 270-272 sit in the 20-row tail
    block.  Sources 0-5 copy the group's base row, so the near ties fill
    their top-k, where GEMM rounding may reorder them."""
    rng = np.random.default_rng(23)

    def unit_rows(n):
        rows = rng.standard_normal((n, 64))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    source = [unit_rows(40) for _ in range(3)]
    target = [unit_rows(276) for _ in range(3)]
    for s_layer, t_layer in zip(source, target):
        base = t_layer[7].copy()
        nudged = base.copy()
        nudged[0] = np.nextafter(nudged[0], np.inf)
        t_layer[[63, 270]] = base
        t_layer[[64, 271]] = nudged
        t_layer[65] = np.nextafter(base, np.inf)
        t_layer[272] = np.nextafter(base, -np.inf)
        s_layer[:6] = base
    return source, target


def brute_force_canonical(source, target, weights, k):
    """Each pair's ``Σ_l θ(l)·(s*t).sum()``, one source at a time, then
    a full sort by (descending score, ascending id)."""
    n_source, n_target = source[0].shape[0], target[0].shape[0]
    targets = np.empty((n_source, k), dtype=np.int64)
    scores = np.empty((n_source, k))
    for node in range(n_source):
        row = np.zeros(n_target)
        for weight, s_layer, t_layer in zip(weights, source, target):
            row += weight * (s_layer[node] * t_layer).sum(axis=1)
        order = sorted(range(n_target), key=lambda u: (-row[u], u))[:k]
        targets[node], scores[node] = order, row[order]
    return targets, scores


class TestNearTies:
    """Exact, lone, streaming, 2-shard and full-probe ANN answers all
    equal the brute-force canonical reference on near-tie targets."""

    WEIGHTS = [0.5, 0.3, 0.2]

    @pytest.fixture(scope="class")
    def reference(self):
        source, target = near_tie_embeddings()
        targets, scores = brute_force_canonical(
            source, target, self.WEIGHTS, 9
        )
        # The near-tie group fills the top-9 of the copied sources.
        assert {63, 64, 65, 270, 271, 272} <= set(targets[0])
        return source, target, targets, scores

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_every_path_equals_the_reference(self, reference, k):
        from repro.serving import AnnIndex, ShardedIndex

        source, target, expected_t, expected_s = reference
        expected_t, expected_s = expected_t[:, :k], expected_s[:, :k]
        batch = np.arange(40)
        index = AlignmentIndex(source, target, self.WEIGHTS,
                               target_block_size=64)
        ann = AnnIndex(source, target, self.WEIGHTS, n_clusters=8, seed=1,
                       target_block_size=64)
        with ShardedIndex(source, target, self.WEIGHTS, shards=2,
                          target_block_size=64, workers=0) as sharded:
            answers = {
                "exact": index.top_k(batch, k),
                "dense": index.top_k(batch, k, prune=False),
                "streaming": streaming_top_k(
                    source, target, self.WEIGHTS, k=k, block_size=7
                ),
                "sharded": sharded.top_k(batch, k),
                "ann": ann.top_k(batch, k, mode="ann", nprobe=8),
            }
        for name, (got_t, got_s) in answers.items():
            np.testing.assert_array_equal(got_t, expected_t, name)
            np.testing.assert_array_equal(got_s, expected_s, name)
        for node in range(6):
            lone_t, lone_s = index.top_k(node, k)
            np.testing.assert_array_equal(lone_t[0], expected_t[node])
            np.testing.assert_array_equal(lone_s[0], expected_s[node])


class TestSanitization:
    def test_nan_source_row_becomes_all_neg_inf(self):
        source, target = make_embeddings(1, n_source=10)
        source[0][3] = np.nan
        registry = MetricsRegistry()
        index = AlignmentIndex(source, target, WEIGHTS,
                               target_block_size=64, registry=registry)
        _, scores = index.top_k(np.arange(10), k=2)
        assert np.all(np.isneginf(scores[3]))
        assert np.isfinite(scores[[0, 1, 2, 4]]).all()
        assert registry.get("serving.index.sanitized_blocks").value > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_target_row_never_wins(self):
        source, target = make_embeddings(2)
        target[0][5] = np.inf
        index = AlignmentIndex(source, target, WEIGHTS, target_block_size=64)
        targets, scores = index.top_k(np.arange(index.n_source), k=1)
        assert 5 not in targets
        assert np.isfinite(scores).all()


class TestArtifactBacked:
    def test_mmap_index_matches_in_memory(self, tmp_path):
        source, target = make_embeddings(3)
        path = str(tmp_path / "artifact")
        export_artifact(path, source, target, WEIGHTS)
        artifact = load_artifact(path, mmap=True)
        mmap_index = AlignmentIndex.from_artifact(artifact,
                                                  target_block_size=48)
        memory_index = AlignmentIndex(source, target, WEIGHTS,
                                      target_block_size=48)
        batch = np.arange(mmap_index.n_source)
        mmap_t, mmap_s = mmap_index.top_k(batch, k=4)
        mem_t, mem_s = memory_index.top_k(batch, k=4)
        np.testing.assert_array_equal(mmap_t, mem_t)
        np.testing.assert_array_equal(mmap_s, mem_s)


class TestValidation:
    def test_rejects_empty_layers(self):
        with pytest.raises(ValueError, match="at least one layer"):
            AlignmentIndex([], [], [])

    def test_rejects_layer_count_mismatch(self):
        source, target = make_embeddings(0)
        with pytest.raises(ValueError, match="layer count"):
            AlignmentIndex(source, target[:1], WEIGHTS)

    def test_rejects_weight_mismatch(self):
        source, target = make_embeddings(0)
        with pytest.raises(ValueError, match="layer_weights"):
            AlignmentIndex(source, target, [1.0])

    def test_rejects_bad_block_size(self):
        source, target = make_embeddings(0)
        with pytest.raises(ValueError, match="target_block_size"):
            AlignmentIndex(source, target, WEIGHTS, target_block_size=0)

    def test_rejects_ragged_layers(self):
        source, target = make_embeddings(0)
        target[1] = target[1][:-2]
        with pytest.raises(ValueError, match="rows"):
            AlignmentIndex(source, target, WEIGHTS)

    def test_rejects_bad_queries(self):
        source, target = make_embeddings(0)
        index = AlignmentIndex(source, target, WEIGHTS)
        with pytest.raises(ValueError, match="non-empty"):
            index.top_k([])
        with pytest.raises(ValueError, match="non-empty"):
            index.top_k([[0, 1]])
        with pytest.raises(IndexError, match="out of range"):
            index.top_k([0, 99])
        with pytest.raises(ValueError, match="k must be"):
            index.top_k([0], k=0)
