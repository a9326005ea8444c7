"""Dense reference implementations of Eq 13 and Alg 2 for the tests.

``repro.core.streaming.find_stable_nodes`` scans S in row blocks and
``AlignmentRefiner.refine`` runs that scan every iteration.  The
functions here hold every n₁×n₂ matrix instead: the layer matrices of
Eq 11, their aggregate (Eq 12), and the Eq 13 test on whole matrices.
They are the oracles the blockwise code is compared against, bit for
bit.
"""

import numpy as np

from repro.core import (
    aggregate_alignment,
    alignment_quality,
    apply_influence_gain,
    layerwise_alignment_matrices,
)
from repro.graphs import weighted_propagation_matrix


def dense_find_stable_nodes(matrices, threshold, reference_scores,
                            tie_tolerance=1e-9):
    """Eq 13 on whole matrices: (stable sources, their targets).

    A source is stable when every layer's row maximum exceeds
    ``threshold`` and the reference's (the aggregate's) top target ties
    every layer's maximum within ``tie_tolerance``.
    """
    maxima = np.stack([m.max(axis=1) for m in matrices])
    confident = np.all(maxima > threshold, axis=0)
    candidates = reference_scores.argmax(axis=1)
    rows = np.arange(matrices[0].shape[0])
    candidate_scores = np.stack([m[rows, candidates] for m in matrices])
    consistent = np.all(candidate_scores >= maxima - tie_tolerance, axis=0)
    sources = np.flatnonzero(consistent & confident)
    return sources, candidates[sources]


def dense_scan(source, target, weights, threshold, tie_tolerance=1e-9):
    """Dense counterpart of ``find_stable_nodes``'s first three values."""
    matrices = layerwise_alignment_matrices(source, target)
    scores = aggregate_alignment(matrices, weights)
    sources, targets = dense_find_stable_nodes(
        matrices, threshold, scores, tie_tolerance
    )
    return sources, targets, alignment_quality(scores), scores


def dense_refine(config, pair, model):
    """Alg 2 holding every matrix: the refinement loop before it scanned
    row blocks.

    Returns ``(scores, quality, stable_sources, stable_targets,
    influence_source, influence_target)``.
    """
    weights = config.resolved_layer_weights()
    influence_source = np.ones(pair.source.num_nodes)
    influence_target = np.ones(pair.target.num_nodes)
    best_scores, best_quality = None, float("-inf")
    quality, stable_sources, stable_targets = [], [], []
    for _ in range(max(1, config.refinement_iterations)):
        source = model.embed(
            pair.source,
            weighted_propagation_matrix(pair.source, influence_source),
        )
        target = model.embed(
            pair.target,
            weighted_propagation_matrix(pair.target, influence_target),
        )
        sources, targets, value, scores = dense_scan(
            source, target, weights, config.stability_threshold
        )
        if not np.all(np.isfinite(scores)):
            break
        quality.append(value)
        stable_sources.append(len(sources))
        stable_targets.append(len(np.unique(targets)))
        if value > best_quality:
            best_quality, best_scores = value, scores
        if len(sources) == 0:
            break
        apply_influence_gain(influence_source, sources, config.influence_gain)
        apply_influence_gain(influence_target, targets, config.influence_gain)
    return (best_scores, quality, stable_sources, stable_targets,
            influence_source, influence_target)


def as_embeddings(matrices):
    """Layer embeddings whose Eq 11 matrices are exactly ``matrices``:
    each matrix as the source layer against an identity target layer."""
    matrices = [np.asarray(m, dtype=float) for m in matrices]
    return matrices, [np.eye(m.shape[1]) for m in matrices]
