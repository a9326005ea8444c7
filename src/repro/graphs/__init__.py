"""Attributed-graph substrate: data structures, generators, noise, datasets."""

from .graph import AttributedGraph
from .laplacian import (
    propagation_matrix,
    weighted_propagation_matrix,
)
from .permutation import (
    random_permutation,
    permutation_matrix,
    apply_permutation,
    invert_permutation,
    groundtruth_from_permutation,
    is_permutation,
)
from .noise import (
    remove_edges,
    add_edges,
    structural_noise,
    binary_attribute_noise,
    real_attribute_noise,
    attribute_noise,
)
from . import generators
from .datasets import (
    AlignmentPair,
    noisy_copy_pair,
    subnetwork_pair,
    overlap_pair,
    douban_like,
    flickr_myspace_like,
    allmovie_imdb_like,
    bn_like,
    econ_like,
    email_like,
    toy_movie_pair,
    SEED_BUILDERS,
)
from .statistics import (
    GraphStatistics,
    graph_statistics,
    pair_statistics,
)
from . import io

__all__ = [
    "AttributedGraph",
    "propagation_matrix",
    "weighted_propagation_matrix",
    "random_permutation",
    "permutation_matrix",
    "apply_permutation",
    "invert_permutation",
    "groundtruth_from_permutation",
    "is_permutation",
    "remove_edges",
    "add_edges",
    "structural_noise",
    "binary_attribute_noise",
    "real_attribute_noise",
    "attribute_noise",
    "generators",
    "AlignmentPair",
    "noisy_copy_pair",
    "subnetwork_pair",
    "overlap_pair",
    "douban_like",
    "flickr_myspace_like",
    "allmovie_imdb_like",
    "bn_like",
    "econ_like",
    "email_like",
    "toy_movie_pair",
    "SEED_BUILDERS",
    "GraphStatistics",
    "graph_statistics",
    "pair_statistics",
    "io",
]
