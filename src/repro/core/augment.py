"""Perturbation-based network augmentation (paper §V-C, Eq 8).

Each augmented copy is a random relabelling of the original (Eq 8:
``A_p = P A Pᵀ``) with structural noise (random edge removals/additions at
probability p_s) and attribute noise (binary position shuffles or bounded
real-value jitter at probability p_a).  The permutation is remembered so the
adaptivity loss can compare corresponding nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..graphs import AttributedGraph, apply_permutation, random_permutation
from ..graphs.noise import kept_edges, new_edges, noisy_features

__all__ = ["AugmentedView", "GraphAugmenter"]


@dataclass
class AugmentedView:
    """One perturbed copy plus the node correspondence to the original.

    ``correspondence[v]`` gives the index of original node v inside
    :attr:`graph`.
    """

    graph: AttributedGraph
    correspondence: np.ndarray


class GraphAugmenter:
    """Factory of perturbed network copies for the adaptivity loss.

    Parameters
    ----------
    structure_noise:
        Edge perturbation probability p_s.
    attribute_noise:
        Attribute perturbation probability p_a.
    num_views:
        Augmented copies generated per call of :meth:`augment`.
    permute:
        Apply the random relabelling of Eq 8.  GCN embeddings are
        permutation-immune (Prop 1), so this mainly exercises that
        invariance; disabling it keeps correspondences trivial, which is
        convenient in tests.
    """

    def __init__(
        self,
        structure_noise: float = 0.1,
        attribute_noise: float = 0.1,
        num_views: int = 2,
        permute: bool = True,
    ) -> None:
        if num_views < 0:
            raise ValueError(f"num_views must be >= 0, got {num_views}")
        if not 0.0 <= structure_noise <= 1.0:
            raise ValueError(f"structure_noise must be in [0, 1], got {structure_noise}")
        if attribute_noise < 0.0:
            raise ValueError(f"attribute_noise must be >= 0, got {attribute_noise}")
        self.structure_noise = structure_noise
        self.attribute_noise_level = attribute_noise
        self.num_views = num_views
        self.permute = permute

    def augment_once(
        self, graph: AttributedGraph, rng: np.random.Generator
    ) -> AugmentedView:
        """Produce a single perturbed copy with its node correspondence.

        The view is the permuted graph put through
        ``structural_noise(mode="both")`` and then ``attribute_noise``,
        with the same random draws in the same order, but the edges and
        features go through those steps as arrays and one graph is built
        at the end.  Removal draws one uniform per edge in the order of
        the permuted graph's ``edge_list()`` (``P A Pᵀ`` leaves its CSR
        rows unsorted, so that order is not lexicographic); the graph
        built from the surviving and added edges is canonical either way.
        """
        n = graph.num_nodes
        if self.permute:
            permutation = random_permutation(n, rng)
            augmented = apply_permutation(graph, permutation)
        else:
            permutation = np.arange(n)
            augmented = graph.copy()
        features = augmented.features
        if self.structure_noise > 0.0:
            half = self.structure_noise / 2.0
            edges = kept_edges(augmented.edge_list(), half, rng)
            added = new_edges(n, edges, int(round(half * len(edges))), rng)
        if self.attribute_noise_level > 0.0:
            features = noisy_features(features, self.attribute_noise_level, rng)
        if self.structure_noise > 0.0:
            augmented = AttributedGraph.from_edges(
                n, np.concatenate([edges, added]), features,
                augmented.node_labels,
            )
        elif self.attribute_noise_level > 0.0:
            augmented = augmented.with_features(features)
        return AugmentedView(graph=augmented, correspondence=permutation)

    def augment(
        self, graph: AttributedGraph, rng: np.random.Generator
    ) -> List[AugmentedView]:
        """Produce :attr:`num_views` independent perturbed copies."""
        return [self.augment_once(graph, rng) for _ in range(self.num_views)]
