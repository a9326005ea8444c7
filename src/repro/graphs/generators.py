"""Synthetic attributed-graph generators.

These supply (a) seeds for the paper's synthetic-noise protocol (§VII-A used
bn/econ/email from network-repository.com; we generate topologically similar
graphs) and (b) arbitrary workloads for tests and examples.

All generators return a connected :class:`~repro.graphs.AttributedGraph`
(largest connected component is kept, then relabelled), because alignment
over disconnected fragments is ill-posed for structure-only methods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .graph import AttributedGraph

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "stochastic_block_model",
    "powerlaw_cluster",
    "random_binary_features",
    "random_onehot_features",
    "random_real_features",
    "degree_correlated_features",
]


def _largest_component(graph: nx.Graph) -> nx.Graph:
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return graph
    component = max(nx.connected_components(graph), key=len)
    return graph.subgraph(component).copy()


def _finalize(
    graph: nx.Graph,
    feature_dim: int,
    rng: np.random.Generator,
    feature_kind: str,
) -> AttributedGraph:
    import networkx as nx

    graph = _largest_component(graph)
    graph = nx.convert_node_labels_to_integers(graph)
    attributed = AttributedGraph.from_networkx(graph)
    n = attributed.num_nodes
    if feature_kind == "binary":
        features = random_binary_features(n, feature_dim, rng)
    elif feature_kind == "onehot":
        features = random_onehot_features(n, feature_dim, rng)
    elif feature_kind == "real":
        features = random_real_features(n, feature_dim, rng)
    elif feature_kind == "degree":
        features = degree_correlated_features(attributed, feature_dim, rng)
    else:
        raise ValueError(f"unknown feature kind {feature_kind!r}")
    return attributed.with_features(features)


def erdos_renyi(
    n: int,
    p: float,
    rng: np.random.Generator,
    feature_dim: int = 16,
    feature_kind: str = "onehot",
) -> AttributedGraph:
    """Erdős–Rényi G(n, p) with attributes."""
    import networkx as nx

    seed = int(rng.integers(0, 2**31 - 1))
    return _finalize(nx.gnp_random_graph(n, p, seed=seed), feature_dim, rng, feature_kind)


def barabasi_albert(
    n: int,
    m: int,
    rng: np.random.Generator,
    feature_dim: int = 16,
    feature_kind: str = "onehot",
) -> AttributedGraph:
    """Barabási–Albert preferential attachment (power-law degrees).

    Social networks such as Douban/Flickr have heavy-tailed degree
    distributions; BA is the standard stand-in.
    """
    import networkx as nx

    seed = int(rng.integers(0, 2**31 - 1))
    return _finalize(nx.barabasi_albert_graph(n, m, seed=seed), feature_dim, rng, feature_kind)


def watts_strogatz(
    n: int,
    k: int,
    p: float,
    rng: np.random.Generator,
    feature_dim: int = 16,
    feature_kind: str = "onehot",
) -> AttributedGraph:
    """Watts–Strogatz small world (high clustering, used for brain-like nets)."""
    import networkx as nx

    seed = int(rng.integers(0, 2**31 - 1))
    return _finalize(
        nx.connected_watts_strogatz_graph(n, k, p, seed=seed),
        feature_dim,
        rng,
        feature_kind,
    )


def stochastic_block_model(
    sizes,
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
    feature_dim: int = 16,
    feature_kind: str = "onehot",
) -> AttributedGraph:
    """SBM with uniform intra/inter-block probabilities (community structure)."""
    import networkx as nx

    blocks = len(sizes)
    probabilities = np.full((blocks, blocks), p_out)
    np.fill_diagonal(probabilities, p_in)
    seed = int(rng.integers(0, 2**31 - 1))
    graph = nx.stochastic_block_model(sizes, probabilities.tolist(), seed=seed)
    return _finalize(nx.Graph(graph), feature_dim, rng, feature_kind)


def powerlaw_cluster(
    n: int,
    m: int,
    p: float,
    rng: np.random.Generator,
    feature_dim: int = 16,
    feature_kind: str = "onehot",
) -> AttributedGraph:
    """Holme–Kim power-law graph with tunable clustering (econ/email-like)."""
    import networkx as nx

    seed = int(rng.integers(0, 2**31 - 1))
    return _finalize(
        nx.powerlaw_cluster_graph(n, m, p, seed=seed), feature_dim, rng, feature_kind
    )


# ----------------------------------------------------------------------
# Attribute generators
# ----------------------------------------------------------------------
def random_binary_features(
    n: int, dim: int, rng: np.random.Generator, density: float = 0.2
) -> np.ndarray:
    """Sparse binary attributes; every node keeps at least one active bit."""
    features = (rng.random((n, dim)) < density).astype(np.float64)
    empty = features.sum(axis=1) == 0.0
    features[empty, rng.integers(0, dim, size=int(empty.sum()))] = 1.0
    return features


def random_onehot_features(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """One-hot categorical attributes (e.g. movie genre, user group)."""
    categories = rng.integers(0, dim, size=n)
    features = np.zeros((n, dim))
    features[np.arange(n), categories] = 1.0
    return features


def random_real_features(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Positive real-valued attributes (age-like), standardized to [0, 1]."""
    features = rng.gamma(shape=2.0, scale=1.0, size=(n, dim))
    return features / features.max(axis=0, keepdims=True)


def degree_correlated_features(
    graph: AttributedGraph, dim: int, rng: np.random.Generator, noise: float = 0.1
) -> np.ndarray:
    """Multi-hot attributes whose leading bits correlate with node degree.

    Real attributes carry signal correlated with a node's role.  The first
    ``dim // 4`` positions one-hot encode the node's degree quantile (the
    role signal); the remaining positions are sparse random binary "profile
    bits".  Multi-hot matters: the paper's binary attribute noise relocates
    *one* non-zero entry per noised node, so vectors with several active
    bits lose only part of their identity — matching the real 538-bit
    Douban profiles rather than a fragile pure one-hot encoding.
    """
    n = graph.num_nodes
    num_bins = max(2, dim // 4)
    degrees = graph.degrees()
    # Quantile bins; identical degrees share a bin.
    quantiles = np.quantile(degrees, np.linspace(0.0, 1.0, num_bins + 1)[1:-1])
    categories = np.searchsorted(quantiles, degrees)
    flip = rng.random(n) < noise
    categories[flip] = rng.integers(0, num_bins, size=int(flip.sum()))
    features = np.zeros((n, dim))
    features[np.arange(n), categories] = 1.0
    profile_dim = dim - num_bins
    if profile_dim > 0:
        # One-hot profile category: with ~num_bins × profile_dim combined
        # patterns, many nodes share a vector — attributes narrow candidates
        # down without identifying nodes outright, as in real profiles.
        profile = rng.integers(0, profile_dim, size=n)
        features[np.arange(n), num_bins + profile] = 1.0
    return features
