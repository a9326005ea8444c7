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

import bisect
from typing import Optional

import numpy as np

from .graph import AttributedGraph

__all__ = [
    "kept_edges",
    "new_edges",
    "remove_edges",
    "add_edges",
    "structural_noise",
    "binary_attribute_noise",
    "real_attribute_noise",
    "noisy_features",
    "attribute_noise",
]


def kept_edges(
    edges: np.ndarray, ratio: float, rng: np.random.Generator
) -> np.ndarray:
    """The rows of ``edges`` that survive :func:`remove_edges`' draw.

    One uniform per edge, in row order, and an edge is kept when its
    uniform is ``>= ratio``; no edges or a zero ratio draw nothing.
    """
    if len(edges) == 0 or ratio == 0.0:
        return edges
    return edges[rng.random(len(edges)) >= ratio]


def new_edges(
    num_nodes: int, edges: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` uniform node pairs absent from ``edges``, as
    :func:`add_edges` draws them: an ``(a, 2)`` array with ``u < v``.

    Candidates are ``rng.integers(0, n, size=2)`` pairs; self-loops,
    existing pairs and pairs already accepted are rejected, and the draw
    gives up after ``50·count + 100`` candidates, so ``a`` may fall short
    of ``count`` on a dense graph.

    The candidates come in rounds of one ``rng.integers(0, n, size=(m,
    2))`` call, ``m`` being the pairs still wanted (capped by the
    candidates left).  That reads the same random stream as ``m`` calls
    of ``size=2``: for ``n − 1 < 2**32`` numpy draws each integer from
    its own 32-bit output by Lemire's method, with any rejection redraws
    in order, and PCG64 keeps the spare half of a 64-bit output in the
    bit generator's state, not in the call.  A round never over-draws:
    a one-pair-at-a-time loop needs at least ``m`` more candidates, so
    it would have drawn every pair of the round.  Within a round the
    first occurrence of a pair wins, as it would in that loop.
    """
    if count == 0 or num_nodes < 2:
        return np.empty((0, 2), dtype=np.int64)
    n = num_nodes
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # Pairs as integer codes u·n + v with u < v, sorted, closed by the
    # sentinel n·n that is above every code.
    taken = np.append(np.sort(edges.min(axis=1) * n + edges.max(axis=1)), n * n)
    accepted = []
    total = attempts = 0
    max_attempts = 50 * count + 100
    while total < count and attempts < max_attempts:
        m = min(count - total, max_attempts - attempts)
        attempts += m
        pairs = rng.integers(0, n, size=(m, 2))
        low, high = pairs.min(axis=1), pairs.max(axis=1)
        codes = low * n + high
        fresh = (low != high) & (taken[np.searchsorted(taken, codes)] != codes)
        first = np.zeros(m, dtype=bool)
        first[np.unique(codes, return_index=True)[1]] = True
        codes = codes[fresh & first]
        accepted.append(codes)
        total += len(codes)
        taken = np.sort(np.concatenate([taken, codes]))
    codes = np.concatenate(accepted)
    return np.column_stack([codes // n, codes % n])


def remove_edges(
    graph: AttributedGraph, ratio: float, rng: np.random.Generator
) -> AttributedGraph:
    """Remove each edge independently with probability ``ratio``."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"removal ratio must be in [0, 1], got {ratio}")
    edges = graph.edge_list()
    if len(edges) == 0 or ratio == 0.0:
        return graph.copy()
    return AttributedGraph.from_edges(
        graph.num_nodes, kept_edges(edges, ratio, rng),
        graph.features.copy(), graph.node_labels,
    )


def add_edges(
    graph: AttributedGraph, ratio: float, rng: np.random.Generator
) -> AttributedGraph:
    """Add ``ratio * e`` spurious edges between uniform non-adjacent pairs.

    The pairs are drawn by :func:`new_edges`, whose docstring gives why
    its rounds read the same random stream as one draw per candidate.
    """
    if ratio < 0.0:
        raise ValueError(f"addition ratio must be non-negative, got {ratio}")
    n = graph.num_nodes
    target = int(round(ratio * graph.num_edges))
    if target == 0 or n < 2:
        return graph.copy()
    existing = graph.edge_list()
    added = new_edges(n, existing, target, rng)
    return AttributedGraph.from_edges(
        n, np.concatenate([existing, added]), graph.features.copy(),
        graph.node_labels,
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

    Each destination is ``zero[rng.integers(0, len(zero))]`` over the
    node's zero positions in ascending order, kept up to date move by
    move rather than rescanned.  That is the value and the random stream
    of ``rng.choice(zero)``, which draws its index exactly so.
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
        # A move trades one zero position for another, so ``zero``
        # never runs empty.
        zero = np.flatnonzero(noisy[node] == 0.0).tolist()
        for source in moving:
            destination = zero.pop(rng.integers(0, len(zero)))
            noisy[node, destination] = noisy[node, source]
            noisy[node, source] = 0.0
            bisect.insort(zero, int(source))
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


def noisy_features(
    features: np.ndarray,
    ratio: float,
    rng: np.random.Generator,
    kind: Optional[str] = None,
) -> np.ndarray:
    """Noised copy of ``features``, auto-detecting binary vs real when
    kind is None."""
    if kind is None:
        is_binary = np.all(np.isin(features, (0.0, 1.0)))
        kind = "binary" if is_binary else "real"
    if kind == "binary":
        return binary_attribute_noise(features, ratio, rng)
    if kind == "real":
        return real_attribute_noise(features, ratio, rng)
    raise ValueError(f"unknown attribute kind {kind!r}")


def attribute_noise(
    graph: AttributedGraph,
    ratio: float,
    rng: np.random.Generator,
    kind: Optional[str] = None,
) -> AttributedGraph:
    """Noise the attributes, auto-detecting binary vs real when kind is None."""
    return graph.with_features(noisy_features(graph.features, ratio, rng, kind))
