"""Tests for noise injection (§V-C augmentation and §VII-D adversarial noise)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    AttributedGraph,
    add_edges,
    attribute_noise,
    binary_attribute_noise,
    generators,
    perturb_graph,
    real_attribute_noise,
    remove_edges,
    structural_noise,
)


class TestRemoveEdges:
    def test_zero_ratio_identical(self, small_graph, rng):
        assert remove_edges(small_graph, 0.0, rng) == small_graph

    def test_full_ratio_removes_all(self, small_graph, rng):
        assert remove_edges(small_graph, 1.0, rng).num_edges == 0

    def test_expected_fraction(self, rng):
        graph = generators.erdos_renyi(200, 0.1, rng, feature_dim=2)
        noisy = remove_edges(graph, 0.3, rng)
        ratio = 1.0 - noisy.num_edges / graph.num_edges
        assert ratio == pytest.approx(0.3, abs=0.07)

    def test_preserves_nodes_and_features(self, small_graph, rng):
        noisy = remove_edges(small_graph, 0.5, rng)
        assert noisy.num_nodes == small_graph.num_nodes
        np.testing.assert_array_equal(noisy.features, small_graph.features)

    def test_invalid_ratio(self, small_graph, rng):
        with pytest.raises(ValueError):
            remove_edges(small_graph, 1.5, rng)


class TestAddEdges:
    def test_zero_ratio_identical(self, small_graph, rng):
        assert add_edges(small_graph, 0.0, rng) == small_graph

    def test_adds_roughly_requested(self, rng):
        graph = generators.erdos_renyi(100, 0.05, rng, feature_dim=2)
        noisy = add_edges(graph, 0.5, rng)
        added = noisy.num_edges - graph.num_edges
        assert added == pytest.approx(0.5 * graph.num_edges, rel=0.15)

    def test_never_duplicates_existing(self, small_graph, rng):
        noisy = add_edges(small_graph, 0.5, rng)
        # Old edges must all still exist; no edge count double-counted.
        for u, v in small_graph.edge_list():
            assert noisy.has_edge(u, v)

    def test_negative_ratio_rejected(self, small_graph, rng):
        with pytest.raises(ValueError):
            add_edges(small_graph, -0.1, rng)


class TestStructuralNoiseModes:
    def test_remove_mode(self, small_graph, rng):
        noisy = structural_noise(small_graph, 0.4, rng, mode="remove")
        assert noisy.num_edges <= small_graph.num_edges

    def test_add_mode(self, small_graph, rng):
        noisy = structural_noise(small_graph, 0.4, rng, mode="add")
        assert noisy.num_edges >= small_graph.num_edges

    def test_both_mode_runs(self, small_graph, rng):
        noisy = structural_noise(small_graph, 0.4, rng, mode="both")
        assert noisy.num_nodes == small_graph.num_nodes

    def test_unknown_mode(self, small_graph, rng):
        with pytest.raises(ValueError):
            structural_noise(small_graph, 0.1, rng, mode="explode")


class TestBinaryAttributeNoise:
    def test_preserves_row_sums(self, rng):
        features = generators.random_binary_features(50, 10, rng)
        noisy = binary_attribute_noise(features, 0.5, rng)
        np.testing.assert_array_equal(noisy.sum(axis=1), features.sum(axis=1))

    def test_zero_ratio_identical(self, rng):
        features = generators.random_binary_features(20, 8, rng)
        np.testing.assert_array_equal(
            binary_attribute_noise(features, 0.0, rng), features
        )

    def test_changes_some_rows_at_high_ratio(self, rng):
        features = generators.random_onehot_features(100, 10, rng)
        noisy = binary_attribute_noise(features, 1.0, rng)
        changed = np.any(noisy != features, axis=1)
        assert changed.mean() > 0.5

    def test_single_column_is_noop(self, rng):
        features = np.ones((5, 1))
        np.testing.assert_array_equal(
            binary_attribute_noise(features, 1.0, rng), features
        )

    def test_invalid_ratio(self, rng):
        with pytest.raises(ValueError):
            binary_attribute_noise(np.ones((2, 2)), 2.0, rng)


class TestRealAttributeNoise:
    def test_bounded_relative_change(self, rng):
        features = rng.uniform(1.0, 2.0, size=(40, 5))
        noisy = real_attribute_noise(features, 0.2, rng)
        relative = np.abs(noisy - features) / features
        assert np.all(relative <= 0.2 + 1e-12)

    def test_zero_ratio_identical(self, rng):
        features = rng.uniform(size=(10, 3))
        np.testing.assert_array_equal(real_attribute_noise(features, 0.0, rng), features)


class TestAttributeNoiseDispatch:
    def test_detects_binary(self, rng):
        graph = generators.erdos_renyi(30, 0.2, rng, feature_kind="onehot", feature_dim=5)
        noisy = attribute_noise(graph, 0.9, rng)
        # Binary path preserves per-row sums (one-hot stays one-hot).
        np.testing.assert_array_equal(
            noisy.features.sum(axis=1), graph.features.sum(axis=1)
        )

    def test_detects_real(self, rng):
        graph = generators.erdos_renyi(30, 0.2, rng, feature_kind="real", feature_dim=5)
        noisy = attribute_noise(graph, 0.3, rng)
        assert not np.array_equal(noisy.features, graph.features)

    def test_explicit_kind_rejected_when_unknown(self, small_graph, rng):
        with pytest.raises(ValueError):
            attribute_noise(small_graph, 0.1, rng, kind="quantum")


class TestPerturbGraph:
    def test_applies_both_noise_types(self, rng):
        graph = generators.barabasi_albert(80, 3, rng, feature_kind="onehot", feature_dim=8)
        noisy = perturb_graph(graph, 0.3, 0.5, rng)
        assert noisy.num_nodes == graph.num_nodes
        assert noisy.num_edges != graph.num_edges or not np.array_equal(
            noisy.features, graph.features
        )

    @given(seed=st.integers(0, 2**31 - 1), ratio=st.floats(0.0, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_node_count_invariant(self, seed, ratio):
        rng = np.random.default_rng(seed)
        graph = generators.erdos_renyi(40, 0.15, rng, feature_dim=4)
        noisy = perturb_graph(graph, ratio, ratio, rng)
        assert noisy.num_nodes == graph.num_nodes
        assert noisy.num_features == graph.num_features


class TestSameStreamDraws:
    """The numpy draw contracts the noise functions rely on, so that a
    numpy change breaking one fails here by name: ``new_edges`` draws a
    round of candidate pairs in one call, and ``binary_attribute_noise``
    indexes its zero positions instead of calling ``choice``."""

    @pytest.mark.parametrize("n", [2, 3, 601, 2**31 + 1, 2**32, 2**40 + 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_a_round_of_pairs_reads_the_per_pair_stream(self, n, seed):
        # n = 2**31 + 1 makes Lemire rejections frequent, so a round
        # reads an odd number of 32-bit halves now and then; the
        # interleaved random() calls then check that the spare half is
        # kept in the bit generator's state on both sides alike.
        one, batch = np.random.default_rng(seed), np.random.default_rng(seed)
        for m in (1, 2, 7, 64, 5):
            pairs = [one.integers(0, n, size=2) for _ in range(m)]
            np.testing.assert_array_equal(
                np.array(pairs), batch.integers(0, n, size=(m, 2))
            )
            assert one.bit_generator.state == batch.bit_generator.state
            assert one.random() == batch.random()

    def test_choice_is_an_integers_index(self):
        for seed in range(200):
            chooser = np.random.default_rng(seed)
            indexer = np.random.default_rng(seed)
            for size in (1, 2, 13, 600, 100_003):
                values = np.arange(size) * 3 + 1
                assert chooser.choice(values) == values[
                    indexer.integers(0, len(values))
                ]
                assert chooser.random() == indexer.random()
            assert chooser.bit_generator.state == indexer.bit_generator.state


def _add_edges_loop(graph, ratio, rng):
    """``add_edges`` with one ``rng.integers`` call per candidate pair,
    kept as the reference for the round draws."""
    n = graph.num_nodes
    target = int(round(ratio * graph.num_edges))
    if target == 0 or n < 2:
        return graph.copy()
    existing = set(map(tuple, graph.edge_list().tolist()))
    added = set()
    attempts = 0
    while len(added) < target and attempts < 50 * target + 100:
        attempts += 1
        u, v = rng.integers(0, n, size=2)
        key = (min(u, v), max(u, v))
        if u != v and key not in existing and key not in added:
            added.add(key)
    return AttributedGraph.from_edges(
        n, list(existing) + list(added), graph.features.copy(),
        graph.node_labels,
    )


def _binary_attribute_noise_loop(features, ratio, rng):
    """``binary_attribute_noise`` rescanning the zero positions and
    calling ``rng.choice`` per move, kept as the reference."""
    noisy = features.copy()
    n, m = noisy.shape
    if m < 2 or ratio == 0.0:
        return noisy
    for node in np.flatnonzero(rng.random(n) < ratio):
        nonzero = np.flatnonzero(noisy[node])
        if len(nonzero) == 0 or len(nonzero) == m:
            continue
        moving = nonzero[rng.random(len(nonzero)) < ratio]
        if len(moving) == 0:
            moving = [rng.choice(nonzero)]
        for source in moving:
            destination = rng.choice(np.flatnonzero(noisy[node] == 0.0))
            noisy[node, destination] = noisy[node, source]
            noisy[node, source] = 0.0
    return noisy


def _same_graph(a, b):
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(
            getattr(a.adjacency, name), getattr(b.adjacency, name)
        )
    np.testing.assert_array_equal(a.features, b.features)


class TestLoopReferences:
    """The array draws against the one-draw-at-a-time loops they
    replace: same graphs and features bit for bit, same generator state."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 40),
        density=st.floats(0.0, 1.0),
        ratio=st.floats(0.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_add_edges_matches_the_per_candidate_loop(
        self, seed, n, density, ratio
    ):
        # Dense small graphs make rejections and in-round repeats common,
        # and ratios past the free pairs exhaust the attempt budget.
        rng = np.random.default_rng(seed)
        graph = generators.erdos_renyi(n, density, rng, feature_dim=2)
        loop_rng = np.random.default_rng(seed + 1)
        array_rng = np.random.default_rng(seed + 1)
        _same_graph(
            add_edges(graph, ratio, array_rng),
            _add_edges_loop(graph, ratio, loop_rng),
        )
        assert array_rng.bit_generator.state == loop_rng.bit_generator.state

    @given(
        seed=st.integers(0, 2**31 - 1),
        density=st.floats(0.0, 1.0),
        ratio=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_binary_noise_matches_the_rescanning_loop(
        self, seed, density, ratio
    ):
        rng = np.random.default_rng(seed)
        features = (rng.random((30, 9)) < density).astype(np.float64)
        loop_rng = np.random.default_rng(seed + 1)
        array_rng = np.random.default_rng(seed + 1)
        np.testing.assert_array_equal(
            binary_attribute_noise(features, ratio, array_rng),
            _binary_attribute_noise_loop(features, ratio, loop_rng),
        )
        assert array_rng.bit_generator.state == loop_rng.bit_generator.state
