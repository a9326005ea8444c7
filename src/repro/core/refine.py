"""Alignment refinement with stability analysis (paper §VI-B, Alg 2).

Iteratively: (1) detect *stable* nodes — source nodes whose top-1 target is
identical across every layer-wise alignment matrix with score above the
confidence factor λ (Eq 13); (2) raise their influence factors α by the gain
β (Eq 14); (3) re-embed both networks through the influence-weighted
propagation matrix (Eq 15); (4) keep the iteration with the best greedy
quality g(S).  Steps (1) and (4) are one scan over row blocks of S
(:func:`repro.core.streaming.find_stable_nodes`, §VI-C), so an iteration
holds no n₁×n₂ array; the one dense S returned is built once, from the
best iteration's embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..graphs import AlignmentPair, weighted_propagation_matrix
from ..observability import MetricsRegistry, get_registry, get_tracer
from ..resilience import validate_pair
# Unused: bench/workloads.py TRAIN_SITES looks these up on this module.
from .alignment import (  # noqa: F401
    aggregate_alignment,
    alignment_quality,
    layerwise_alignment_matrices,
)
from .config import GAlignConfig
from .model import MultiOrderGCN
from .scoring import score_block
from .streaming import find_stable_nodes

__all__ = [
    "apply_influence_gain",
    "AlignmentRefiner",
    "RefinementLog",
]


def apply_influence_gain(
    influence: np.ndarray, nodes: np.ndarray, gain: float
) -> np.ndarray:
    """Eq 14 in-place: multiply ``influence[node]`` by ``gain`` per entry.

    ``nodes`` may contain duplicates — several stable sources sharing one
    anchor target — and the gain accumulates once *per stable pair*, so a
    node appearing twice is amplified by ``gain**2``.  A fancy-indexed
    ``influence[nodes] *= gain`` would collapse duplicates (numpy buffers
    the assignment per unique index); ``np.multiply.at`` does not.
    """
    np.multiply.at(influence, nodes, gain)
    return influence


@dataclass
class RefinementLog:
    """Trajectory of the greedy quality criterion and stable-node counts.

    When constructed with a ``registry`` the log doubles as a view over it:
    every :meth:`record_iteration` also updates the ``refine.*`` gauges and
    emits a ``refine.iteration`` event.
    """

    quality: List[float] = field(default_factory=list)
    stable_sources: List[int] = field(default_factory=list)
    stable_targets: List[int] = field(default_factory=list)
    #: Influence factors α after the final iteration (Eq 14 accumulation).
    final_influence_source: np.ndarray | None = None
    final_influence_target: np.ndarray | None = None
    #: Multi-order embeddings [H(0)..H(k)] from the best-quality iteration —
    #: the embeddings the returned alignment matrix was built from (and what
    #: GAlign-3 under refinement re-aggregates its last-layer scores from).
    best_source_embeddings: List[np.ndarray] | None = None
    best_target_embeddings: List[np.ndarray] | None = None
    registry: MetricsRegistry | None = field(
        default=None, repr=False, compare=False
    )

    def record_iteration(
        self, quality: float, num_sources: int, num_targets: int
    ) -> None:
        self.quality.append(quality)
        self.stable_sources.append(num_sources)
        self.stable_targets.append(num_targets)
        if self.registry is not None:
            self.registry.observe("refine.quality", quality)
            self.registry.observe("refine.stable_nodes", num_sources)
            self.registry.observe("refine.stable_targets", num_targets)
            self.registry.emit(
                "refine.iteration",
                {
                    "iteration": len(self.quality) - 1,
                    "quality": quality,
                    "stable_sources": num_sources,
                    "stable_targets": num_targets,
                },
            )

    @property
    def best_quality(self) -> float:
        return max(self.quality) if self.quality else float("-inf")


class AlignmentRefiner:
    """Run Alg 2 on a trained model and an alignment pair."""

    def __init__(
        self,
        config: GAlignConfig,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        #: Metrics sink; ``None`` falls back to the process registry at
        #: refine time (so ``use_registry`` scopes apply).
        self.registry = registry

    def refine(
        self,
        pair: AlignmentPair,
        source_model: MultiOrderGCN,
        target_model: MultiOrderGCN | None = None,
    ) -> Tuple[np.ndarray, RefinementLog]:
        """Return the best aggregated alignment matrix and the search log.

        ``target_model`` defaults to ``source_model`` (weight sharing); the
        weight-sharing ablation passes a separately trained model.

        Refinement degrades gracefully under numerical failure: when an
        iteration's influence-weighted re-embedding produces non-finite
        scores (influence factors grow like β^iterations and can
        overflow), the loop stops and the best finite iteration — the
        pre-refinement embeddings in the worst case — is returned
        instead of propagating NaN/Inf downstream.  Such fallbacks are
        counted in ``resilience.refine_fallbacks``.
        """
        config = self.config
        registry = self.registry if self.registry is not None else get_registry()
        validate_pair(pair, registry=registry)
        if target_model is None:
            target_model = source_model
        layer_weights = config.resolved_layer_weights()

        # Alg 2 line 4: influence factors start at 1.
        influence_source = np.ones(pair.source.num_nodes)
        influence_target = np.ones(pair.target.num_nodes)

        log = RefinementLog(registry=registry)
        best_quality = float("-inf")
        tracer = get_tracer()

        for iteration in range(max(1, config.refinement_iterations)):
            with tracer.span("refine.iteration", iteration=iteration), \
                    registry.timed("refine.iteration_time"):
                with tracer.span("refine.embed"):
                    prop_source = weighted_propagation_matrix(
                        pair.source, influence_source
                    )
                    prop_target = weighted_propagation_matrix(
                        pair.target, influence_target
                    )
                    source_embeddings = source_model.embed(
                        pair.source, prop_source
                    )
                    target_embeddings = target_model.embed(
                        pair.target, prop_target
                    )
                with tracer.span("refine.align"):
                    sources, targets, quality, sanitized = find_stable_nodes(
                        source_embeddings, target_embeddings, layer_weights,
                        config.stability_threshold, registry=registry,
                    )
                if sanitized:
                    # Influence-weighted propagation went numerically bad;
                    # keep the best finite iteration (iteration 0 == the
                    # pre-refinement embeddings) rather than propagate.
                    registry.increment("resilience.refine_fallbacks")
                    registry.emit(
                        "resilience.refine_fallback",
                        {
                            "iteration": iteration,
                            "best_quality": best_quality,
                        },
                    )
                    break
            registry.increment("refine.iterations")
            log.record_iteration(quality, len(sources), len(np.unique(targets)))

            if quality > best_quality:
                best_quality = quality
                log.best_source_embeddings = source_embeddings
                log.best_target_embeddings = target_embeddings

            if len(sources) == 0:
                # No stable anchors: influence factors would not change and
                # the iteration has reached a fixed point.
                break
            # Eq 14: amplify influence of stable nodes on both sides.  The
            # target side accumulates per stable *pair*: duplicated anchor
            # targets must be amplified once per sharing source.
            apply_influence_gain(influence_source, sources, config.influence_gain)
            apply_influence_gain(influence_target, targets, config.influence_gain)

        if log.best_source_embeddings is None:
            # Even iteration 0 (influence factors all 1, i.e. the plain
            # pre-refinement embeddings) was non-finite: the model itself
            # is broken and there is nothing sane to fall back to.
            raise ValueError(
                "refinement produced non-finite scores on the first "
                "iteration; the trained model's embeddings are numerically "
                "broken — retrain (see resilience.* metrics) or validate "
                "the input graphs"
            )
        registry.observe("refine.influence.source_max", influence_source.max())
        registry.observe("refine.influence.target_max", influence_target.max())
        registry.observe("refine.influence.source_mean", influence_source.mean())
        registry.observe("refine.influence.target_mean", influence_target.mean())
        log.final_influence_source = influence_source
        log.final_influence_target = influence_target
        # One full-height block: the GEMMs and addition order of
        # aggregate_alignment(layerwise_alignment_matrices(...)).
        scores, _ = score_block(
            log.best_source_embeddings, log.best_target_embeddings,
            layer_weights,
        )
        return scores, log
