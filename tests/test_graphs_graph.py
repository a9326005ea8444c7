"""Unit tests for AttributedGraph."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import AttributedGraph


class TestConstruction:
    def test_from_dense_adjacency(self):
        adj = np.array([[0, 1], [1, 0]], dtype=float)
        g = AttributedGraph(adj)
        assert g.num_nodes == 2
        assert g.num_edges == 1

    def test_symmetrizes_directed_input(self):
        adj = np.array([[0, 1], [0, 0]], dtype=float)
        g = AttributedGraph(adj)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_drops_self_loops(self):
        adj = np.array([[1, 1], [1, 1]], dtype=float)
        g = AttributedGraph(adj)
        assert not g.has_edge(0, 0)
        assert g.num_edges == 1

    def test_default_features_constant(self):
        g = AttributedGraph(np.zeros((3, 3)))
        assert g.features.shape == (3, 1)
        np.testing.assert_array_equal(g.features, np.ones((3, 1)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AttributedGraph(np.zeros((2, 3)))

    def test_rejects_bad_feature_shape(self):
        with pytest.raises(ValueError):
            AttributedGraph(np.zeros((3, 3)), features=np.zeros((2, 4)))

    def test_rejects_bad_label_count(self):
        with pytest.raises(ValueError):
            AttributedGraph(np.zeros((3, 3)), node_labels=["a"])

    def test_from_edges(self):
        g = AttributedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_edges == 3
        assert g.degrees().tolist() == [1, 2, 2, 1]

    def test_from_edges_skips_self_loops(self):
        g = AttributedGraph.from_edges(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AttributedGraph.from_edges(2, [(0, 5)])

    def test_from_edges_rejects_malformed_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            AttributedGraph.from_edges(9, [(0, 1, 2), (3, 4, 5)])

    def test_from_networkx_roundtrip(self):
        import networkx as nx

        nxg = nx.path_graph(5)
        g = AttributedGraph.from_networkx(nxg)
        assert g.num_nodes == 5
        assert g.num_edges == 4
        back = g.to_networkx()
        assert back.number_of_edges() == 4


def _loop_from_edges(num_nodes, edges):
    """The pair-by-pair reference :meth:`AttributedGraph.from_edges`
    must match bit for bit."""
    rows, cols = [], []
    for u, v in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range for n={num_nodes}")
        if u == v:
            continue
        rows.append(u)
        cols.append(v)
    adj = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(num_nodes, num_nodes)
    )
    return AttributedGraph(adj)


def _assert_same_arrays(actual, expected):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def _assert_same_csr(actual, expected):
    _assert_same_arrays(actual.adjacency, expected.adjacency)


class TestFromEdgesOracle:
    @pytest.fixture
    def edges(self):
        # Self-loops, duplicates and both directions of the same edge.
        pairs = np.random.default_rng(4).integers(0, 40, size=(500, 2))
        pairs = np.vstack([pairs, [[3, 3], [5, 7], [7, 5], [5, 7]]])
        return [(int(u), int(v)) for u, v in pairs]

    @pytest.mark.parametrize("kind", ["list", "generator", "int64", "int32"])
    def test_matches_loop_reference(self, edges, kind):
        make = {
            "list": lambda: list(edges),
            "generator": lambda: (pair for pair in edges),
            "int64": lambda: np.array(edges, dtype=np.int64),
            "int32": lambda: np.array(edges, dtype=np.int32),
        }[kind]
        _assert_same_csr(
            AttributedGraph.from_edges(40, make()),
            _loop_from_edges(40, make()),
        )

    @pytest.mark.parametrize("edges", [[], [(2, 2)], [(0, 1)]])
    def test_degenerate_inputs_match(self, edges):
        _assert_same_csr(
            AttributedGraph.from_edges(3, edges), _loop_from_edges(3, edges)
        )

    @pytest.mark.parametrize("edges", [
        [(0, 1), (2, 9), (-1, 3)],
        [(4, 4), (0, -2), (9, 9)],
        [(12, 12)],
    ])
    def test_same_error_for_first_out_of_range_edge(self, edges):
        with pytest.raises(ValueError) as expected:
            _loop_from_edges(9, edges)
        with pytest.raises(ValueError) as actual:
            AttributedGraph.from_edges(9, np.array(edges))
        assert str(actual.value) == str(expected.value)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            AttributedGraph.from_edges(9, iter(edges))


def _setdiag_adjacency(adjacency):
    """The constructor's adjacency as built through ``setdiag(0.0)``:
    the reference its row-mask diagonal drop must match bit for bit."""
    adj = sp.csr_matrix(adjacency, dtype=np.float64)
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    adj = adj.maximum(adj.T)
    adj.data[:] = 1.0
    return adj.tocsr()


@st.composite
def _adjacency_inputs(draw, kinds=("csr", "coo", "dense"), unique=True):
    """``(kind, n, entries)``: stored entries in drawn order, so a CSR
    built from them has unsorted columns and stored zeros, and
    duplicates unless ``unique`` (a COO input sums its duplicates)."""
    n = draw(st.integers(0, 7))
    cell = st.integers(0, max(n - 1, 0))
    entries = draw(st.lists(
        st.tuples(cell, cell, st.sampled_from([0.0, 1.0, 2.0])),
        max_size=30 if n else 0,
        unique_by=(lambda e: e[:2]) if unique else None,
    ))
    if n and draw(st.booleans()):  # every diagonal entry stored
        stored = {e[:2] for e in entries} if unique else set()
        entries += [(i, i, 1.0) for i in range(n) if (i, i) not in stored]
    return draw(st.sampled_from(kinds)), n, entries


def _build_adjacency(kind, n, entries):
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    data = np.array([e[2] for e in entries], dtype=np.float64)
    if kind == "dense":
        dense = np.zeros((n, n))
        dense[rows, cols] = data
        return dense
    if kind == "coo":
        return sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    order = np.argsort(rows, kind="stable")  # keeps each row's draw order
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))


class TestDiagonalDrop:
    @settings(max_examples=200, deadline=None)
    @given(_adjacency_inputs() | _adjacency_inputs(("coo",), unique=False))
    def test_matches_setdiag_reference(self, adjacency):
        graph = AttributedGraph(_build_adjacency(*adjacency))
        _assert_same_arrays(
            graph.adjacency, _setdiag_adjacency(_build_adjacency(*adjacency))
        )

    @settings(max_examples=100, deadline=None)
    @given(_adjacency_inputs(("csr",), unique=False))
    def test_csr_duplicates_keep_the_reference_edges(self, adjacency):
        # setdiag summed duplicates only when a diagonal entry was one,
        # so only the canonical forms (same edges) are compared.
        got = AttributedGraph(_build_adjacency(*adjacency)).adjacency.copy()
        want = _setdiag_adjacency(_build_adjacency(*adjacency))
        got.sum_duplicates()
        want.sum_duplicates()
        _assert_same_arrays(got, want)

    def test_leaves_the_callers_matrix_alone(self):
        adjacency = _build_adjacency(
            "csr", 3, [(0, 0, 1.0), (0, 1, 0.0), (1, 2, 1.0), (1, 1, 2.0)]
        )
        before = [a.copy() for a in (
            adjacency.indptr, adjacency.indices, adjacency.data
        )]
        AttributedGraph(adjacency)
        for got, want in zip(
            (adjacency.indptr, adjacency.indices, adjacency.data), before
        ):
            np.testing.assert_array_equal(got, want)


class TestAccessors:
    def test_neighbors(self, tiny_graph):
        assert set(tiny_graph.neighbors(1)) == {0, 2, 3}

    def test_neighbors_out_of_range(self, tiny_graph):
        with pytest.raises(IndexError):
            tiny_graph.neighbors(10)

    def test_edge_list_sorted_pairs(self, tiny_graph):
        edges = tiny_graph.edge_list()
        assert all(u < v for u, v in edges)
        assert len(edges) == tiny_graph.num_edges

    def test_adjacency_with_self_loops(self, tiny_graph):
        a_hat = tiny_graph.adjacency_with_self_loops()
        assert np.all(a_hat.diagonal() == 1.0)
        assert a_hat.nnz == tiny_graph.adjacency.nnz + tiny_graph.num_nodes

    def test_degrees(self, tiny_graph):
        np.testing.assert_array_equal(tiny_graph.degrees(), [1, 3, 2, 3, 1])


class TestTransformations:
    def test_copy_independent(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.features[0, 0] = 42.0
        assert tiny_graph.features[0, 0] != 42.0

    def test_with_features(self, tiny_graph):
        new = tiny_graph.with_features(np.zeros((5, 2)))
        assert new.num_features == 2
        assert new.num_edges == tiny_graph.num_edges

    def test_subgraph_topology(self, tiny_graph):
        sub = tiny_graph.subgraph([1, 2, 3])
        # Edges among {1,2,3}: (1,2), (2,3), (1,3) -> 3 edges.
        assert sub.num_nodes == 3
        assert sub.num_edges == 3

    def test_subgraph_features_follow(self, tiny_graph):
        sub = tiny_graph.subgraph([4, 0])
        np.testing.assert_array_equal(sub.features[0], tiny_graph.features[4])
        np.testing.assert_array_equal(sub.features[1], tiny_graph.features[0])

    def test_equality(self, tiny_graph):
        assert tiny_graph == tiny_graph.copy()
        assert tiny_graph != tiny_graph.subgraph([0, 1, 2])

    def test_repr(self, tiny_graph):
        text = repr(tiny_graph)
        assert "nodes=5" in text
