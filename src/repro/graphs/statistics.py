"""Descriptive statistics of attributed graphs and alignment pairs.

Used to validate that dataset stand-ins match Table II's shape (node/edge
counts, degree distribution, attribute dimensionality) and by users to
understand their own alignment workloads before choosing hyper-parameters
(e.g. the paper's advice that the right layer weights depend on diameter
and degree structure, §VII-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .graph import AttributedGraph
from .datasets import AlignmentPair

__all__ = ["GraphStatistics", "graph_statistics", "pair_statistics"]


@dataclass
class GraphStatistics:
    """Summary of one attributed network."""

    num_nodes: int
    num_edges: int
    num_features: int
    average_degree: float
    max_degree: int
    median_degree: float
    degree_gini: float
    clustering_coefficient: float
    connected_components: int
    attribute_density: float
    attributes_binary: bool

    def as_dict(self) -> Dict[str, float]:
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "features": self.num_features,
            "avg_degree": self.average_degree,
            "max_degree": self.max_degree,
            "median_degree": self.median_degree,
            "degree_gini": self.degree_gini,
            "clustering": self.clustering_coefficient,
            "components": self.connected_components,
            "attr_density": self.attribute_density,
        }

    def __str__(self) -> str:
        return (
            f"n={self.num_nodes} e={self.num_edges} m={self.num_features} "
            f"deg(avg={self.average_degree:.2f}, max={self.max_degree}, "
            f"gini={self.degree_gini:.2f}) cc={self.clustering_coefficient:.3f}"
        )


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (degree inequality).

    0 = perfectly regular graph, → 1 = extreme hub dominance.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.shape[0]
    total = values.sum()
    if n == 0 or total == 0.0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * values).sum()) / (n * total) - (n + 1.0) / n)


def graph_statistics(graph: AttributedGraph) -> GraphStatistics:
    """Compute the summary; clustering/components via networkx."""
    import networkx as nx

    degrees = graph.degrees()
    nxg = graph.to_networkx()
    features = graph.features
    binary = bool(np.all(np.isin(features, (0.0, 1.0))))
    return GraphStatistics(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_features=graph.num_features,
        average_degree=float(degrees.mean()) if graph.num_nodes else 0.0,
        max_degree=int(degrees.max()) if graph.num_nodes else 0,
        median_degree=float(np.median(degrees)) if graph.num_nodes else 0.0,
        degree_gini=_gini(degrees),
        clustering_coefficient=float(nx.average_clustering(nxg)) if graph.num_nodes else 0.0,
        connected_components=int(nx.number_connected_components(nxg)) if graph.num_nodes else 0,
        attribute_density=float(np.count_nonzero(features) / features.size),
        attributes_binary=binary,
    )


def pair_statistics(pair: AlignmentPair) -> Dict[str, object]:
    """Joint summary of an alignment task: both sides + anchor coverage."""
    source_stats = graph_statistics(pair.source)
    target_stats = graph_statistics(pair.target)
    size_ratio = pair.target.num_nodes / max(1, pair.source.num_nodes)
    return {
        "name": pair.name,
        "source": source_stats,
        "target": target_stats,
        "anchors": pair.num_anchors,
        "anchor_coverage_source": pair.num_anchors / max(1, pair.source.num_nodes),
        "anchor_coverage_target": pair.num_anchors / max(1, pair.target.num_nodes),
        "size_ratio": size_ratio,
    }
