"""Structural and attribute noise injection (paper §V-C and §VII-D).

Two uses in the paper:

* **Data augmentation** (§V-C): perturbed copies of each input network train
  the adaptivity loss (Eq 9).
* **Adversarial evaluation** (§VII-D, Figs 3-4): noisy targets measure
  robustness of every method.

Conventions follow the paper: structural noise removes (or adds) edges with
probability ``p_s``; attribute noise flips non-zero positions of binary
attribute vectors or rescales real-valued entries by a random amount in
``[0, p_a * F_ij]``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graph import AttributedGraph

__all__ = [
    "remove_edges",
    "add_edges",
    "structural_noise",
    "binary_attribute_noise",
    "real_attribute_noise",
    "attribute_noise",
    "perturb_graph",
]


def remove_edges(
    graph: AttributedGraph, ratio: float, rng: np.random.Generator
) -> AttributedGraph:
    """Remove each edge independently with probability ``ratio``."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"removal ratio must be in [0, 1], got {ratio}")
    edges = graph.edge_list()
    if len(edges) == 0 or ratio == 0.0:
        return graph.copy()
    keep = rng.random(len(edges)) >= ratio
    return AttributedGraph.from_edges(
        graph.num_nodes, edges[keep], graph.features.copy(), graph.node_labels
    )


def add_edges(
    graph: AttributedGraph, ratio: float, rng: np.random.Generator
) -> AttributedGraph:
    """Add ``ratio * e`` spurious edges between uniform non-adjacent pairs."""
    if ratio < 0.0:
        raise ValueError(f"addition ratio must be non-negative, got {ratio}")
    n = graph.num_nodes
    target = int(round(ratio * graph.num_edges))
    if target == 0 or n < 2:
        return graph.copy()
    # Python-int pairs hash and compare like the numpy-int pairs the
    # draw loop makes, so set order (and the built graph) is unchanged.
    existing = set(map(tuple, graph.edge_list().tolist()))
    new_edges = set()
    attempts = 0
    max_attempts = 50 * target + 100
    while len(new_edges) < target and attempts < max_attempts:
        attempts += 1
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing or key in new_edges:
            continue
        new_edges.add(key)
    all_edges = list(existing) + list(new_edges)
    return AttributedGraph.from_edges(
        n, all_edges, graph.features.copy(), graph.node_labels
    )


def structural_noise(
    graph: AttributedGraph,
    ratio: float,
    rng: np.random.Generator,
    mode: str = "remove",
) -> AttributedGraph:
    """Inject structural noise; ``mode`` in {'remove', 'add', 'both'}.

    The paper's robustness experiment (Fig 3) uses edge removal; the
    augmenter (§V-C) mentions both additions and removals, so 'both' splits
    the budget evenly.
    """
    if mode == "remove":
        return remove_edges(graph, ratio, rng)
    if mode == "add":
        return add_edges(graph, ratio, rng)
    if mode == "both":
        half = ratio / 2.0
        return add_edges(remove_edges(graph, half, rng), half, rng)
    raise ValueError(f"unknown structural noise mode {mode!r}")


def binary_attribute_noise(
    features: np.ndarray, ratio: float, rng: np.random.Generator
) -> np.ndarray:
    """Paper §V-C binary attribute noise, per node with probability ``ratio``.

    "Randomly change the position of non-zero entries of each attribute
    vector F_i with probability p_a": each node is selected with probability
    p_a, and each non-zero entry of a selected node's vector moves to a
    random currently-zero position with probability p_a (at least one entry
    always moves for a selected node).  Damage therefore scales with the
    noise level twice — more nodes touched, and more of each touched
    vector's identity lost — while a single moved bit already breaks any
    exact-match treatment of attributes (e.g. FINAL's categorical node
    similarity).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"attribute noise ratio must be in [0, 1], got {ratio}")
    noisy = features.copy()
    n, m = noisy.shape
    if m < 2 or ratio == 0.0:
        return noisy
    selected = rng.random(n) < ratio
    for node in np.flatnonzero(selected):
        nonzero = np.flatnonzero(noisy[node])
        if len(nonzero) == 0 or len(nonzero) == m:
            continue
        moving = nonzero[rng.random(len(nonzero)) < ratio]
        if len(moving) == 0:
            moving = [rng.choice(nonzero)]
        for source in moving:
            zero = np.flatnonzero(noisy[node] == 0.0)
            if len(zero) == 0:
                break
            destination = rng.choice(zero)
            noisy[node, destination] = noisy[node, source]
            noisy[node, source] = 0.0
    return noisy


def real_attribute_noise(
    features: np.ndarray, ratio: float, rng: np.random.Generator
) -> np.ndarray:
    """Scale each entry by a random amount in ``[0, ratio * F_ij]`` (paper §V-C)."""
    if ratio < 0.0:
        raise ValueError(f"attribute noise ratio must be non-negative, got {ratio}")
    jitter = rng.random(features.shape) * ratio * features
    sign = rng.choice([-1.0, 1.0], size=features.shape)
    return features + sign * jitter


def attribute_noise(
    graph: AttributedGraph,
    ratio: float,
    rng: np.random.Generator,
    kind: Optional[str] = None,
) -> AttributedGraph:
    """Noise the attributes, auto-detecting binary vs real when kind is None."""
    features = graph.features
    if kind is None:
        is_binary = np.all(np.isin(features, (0.0, 1.0)))
        kind = "binary" if is_binary else "real"
    if kind == "binary":
        noisy = binary_attribute_noise(features, ratio, rng)
    elif kind == "real":
        noisy = real_attribute_noise(features, ratio, rng)
    else:
        raise ValueError(f"unknown attribute kind {kind!r}")
    return graph.with_features(noisy)


def perturb_graph(
    graph: AttributedGraph,
    structure_ratio: float,
    attribute_ratio: float,
    rng: np.random.Generator,
    structure_mode: str = "both",
) -> AttributedGraph:
    """Full §V-C augmentation: structural then attribute perturbation."""
    noisy = structural_noise(graph, structure_ratio, rng, mode=structure_mode)
    if attribute_ratio > 0.0:
        noisy = attribute_noise(noisy, attribute_ratio, rng)
    return noisy
