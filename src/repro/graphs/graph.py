"""Attributed graph data structure (paper §II-A).

An attributed network is ``G = (V, A, F)``: nodes, a binary adjacency matrix,
and a real node-attribute matrix whose rows encode domain semantics (not
topology-derived features).  The class stores the adjacency as a scipy CSR
matrix so the normalized-Laplacian propagation stays sparse (complexity
analysis, paper §VI-C).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..resilience.errors import GraphValidationError

__all__ = ["AttributedGraph"]


class AttributedGraph:
    """Undirected attributed graph backed by CSR adjacency + dense attributes.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` binary matrix (dense or scipy sparse).  Symmetrized on
        construction; self-loops in the input are dropped (the model adds
        its own self-loops via ``Â = A + I``).
    features:
        ``(n, m)`` node attribute matrix, or None for a featureless graph
        (a constant single attribute is synthesized so GCN input exists —
        matches common practice for attribute-free alignment datasets).
    node_labels:
        Optional external identifiers, one per node.
    """

    def __init__(
        self,
        adjacency,
        features: Optional[np.ndarray] = None,
        node_labels: Optional[Sequence] = None,
    ) -> None:
        # A copy: the caller's CSR arrays are not edited below.
        adj = sp.csr_matrix(adjacency, dtype=np.float64, copy=True)
        if adj.shape[0] != adj.shape[1]:
            raise GraphValidationError(
                f"adjacency must be square, got {adj.shape}"
            )
        # Zero the stored diagonal entries (each entry's row against its
        # column), then drop them with every other stored zero.
        entry_rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
        adj.data[adj.indices == entry_rows] = 0.0
        adj.eliminate_zeros()
        # Symmetrize: edge present if present in either direction.
        adj = adj.maximum(adj.T)
        adj.data[:] = 1.0
        self._adj: sp.csr_matrix = adj.tocsr()

        n = adj.shape[0]
        if features is None:
            features = np.ones((n, 1))
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != n:
            raise GraphValidationError(
                f"features must be (n={n}, m) 2-D, got shape {features.shape}"
            )
        self._features = features

        if node_labels is not None:
            node_labels = list(node_labels)
            if len(node_labels) != n:
                raise ValueError(
                    f"expected {n} node labels, got {len(node_labels)}"
                )
        self._labels: Optional[List] = node_labels

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        features: Optional[np.ndarray] = None,
        node_labels: Optional[Sequence] = None,
    ) -> "AttributedGraph":
        """Build from an edge list of (u, v) int pairs.

        ``edges`` may be any iterable of pairs or an ``(e, 2)`` int
        array.  Validation and self-loop removal are array operations,
        and the surviving pairs reach the COO constructor in input
        order, so the CSR built (duplicates, both directions and all)
        is bit for bit what a pair-by-pair loop would build.  An
        out-of-range edge raises ``ValueError`` naming the first one in
        input order.
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(
                f"edges must be (u, v) pairs, got shape {pairs.shape}"
            )
        out_of_range = (pairs < 0) | (pairs >= num_nodes)
        bad = np.flatnonzero(out_of_range.any(axis=1))
        if bad.size:
            u, v = pairs[bad[0]].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for n={num_nodes}")
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        data = np.ones(pairs.shape[0])
        adj = sp.coo_matrix(
            (data, (pairs[:, 0], pairs[:, 1])), shape=(num_nodes, num_nodes)
        )
        return cls(adj, features=features, node_labels=node_labels)

    @classmethod
    def from_networkx(cls, graph, features: Optional[np.ndarray] = None) -> "AttributedGraph":
        """Build from a networkx graph; nodes are relabelled 0..n-1."""
        import networkx as nx

        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in graph.edges()]
        return cls.from_edges(len(nodes), edges, features=features, node_labels=nodes)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._adj.shape[0]

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return int(self._adj.nnz // 2)

    @property
    def num_features(self) -> int:
        return self._features.shape[1]

    @property
    def adjacency(self) -> sp.csr_matrix:
        """Binary symmetric adjacency without self-loops (CSR)."""
        return self._adj

    @property
    def features(self) -> np.ndarray:
        """Node attribute matrix ``F`` of shape ``(n, m)``."""
        return self._features

    @property
    def node_labels(self) -> Optional[List]:
        return self._labels

    def degrees(self) -> np.ndarray:
        """Node degrees (without self-loops)."""
        return np.asarray(self._adj.sum(axis=1)).ravel()

    def neighbors(self, node: int) -> np.ndarray:
        """Indices adjacent to ``node``."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        start, stop = self._adj.indptr[node], self._adj.indptr[node + 1]
        return self._adj.indices[start:stop].copy()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u, v] != 0.0)

    def edge_list(self) -> np.ndarray:
        """``(e, 2)`` array of undirected edges with u < v."""
        coo = sp.triu(self._adj, k=1).tocoo()
        return np.column_stack([coo.row, coo.col])

    def adjacency_with_self_loops(self) -> sp.csr_matrix:
        """``Â = A + I`` (paper Table I)."""
        return (self._adj + sp.identity(self.num_nodes, format="csr")).tocsr()

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def copy(self) -> "AttributedGraph":
        return AttributedGraph(
            self._adj.copy(),
            self._features.copy(),
            list(self._labels) if self._labels is not None else None,
        )

    def with_features(self, features: np.ndarray) -> "AttributedGraph":
        """Same topology, different attributes."""
        return AttributedGraph(self._adj.copy(), features, self._labels)

    def subgraph(self, nodes: Sequence[int]) -> "AttributedGraph":
        """Induced subgraph on ``nodes`` (order defines new indices)."""
        nodes = np.asarray(nodes, dtype=int)
        adj = self._adj[nodes][:, nodes]
        features = self._features[nodes]
        labels = [self._labels[i] for i in nodes] if self._labels is not None else None
        return AttributedGraph(adj, features, labels)

    def to_networkx(self):
        """Export to a networkx Graph with feature vectors as node data."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(map(tuple, self.edge_list()))
        for node in range(self.num_nodes):
            graph.nodes[node]["features"] = self._features[node]
        return graph

    def __repr__(self) -> str:
        return (
            f"AttributedGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"features={self.num_features})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        if self._adj.shape != other._adj.shape:
            return False
        same_topology = (self._adj != other._adj).nnz == 0
        return same_topology and np.array_equal(self._features, other._features)

    def __hash__(self):
        return id(self)
