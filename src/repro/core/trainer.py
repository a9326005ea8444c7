"""Augmented learning for multi-order embeddings (paper Alg 1).

One shared-weight GCN embeds the source network, the target network, and
their augmented copies; the loss combines consistency (Eq 7, on source and
target) with adaptivity (Eq 9, between each network and its own perturbed
views), and Adam updates the shared weights.  Eq 7 is exact and costs
O(nnz·d + n·d²) per layer (:func:`~repro.autograd.gram_residual_norm`), so
one trainer serves small and large graphs alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..autograd import Adam
from ..graphs import AlignmentPair, AttributedGraph, propagation_matrix
from ..observability import MetricsRegistry, get_registry
from ..resilience import FaultInjector, validate_graph, validate_pair
from .augment import AugmentedView, GraphAugmenter
from .config import GAlignConfig
from .losses import adaptivity_loss, combined_loss, consistency_loss
from .model import MultiOrderGCN
from .training_loop import CompiledLoss, run_resilient_training

__all__ = ["GAlignTrainer", "TrainingLog"]


@dataclass
class TrainingLog:
    """Per-epoch loss trajectory for diagnostics.

    When constructed with a ``registry`` the log doubles as a view over it:
    every :meth:`record` also updates the ``trainer.loss.*`` gauges and
    emits a ``trainer.epoch`` event, so exports and hook subscribers see the
    same trajectory the in-memory lists hold.
    """

    total: List[float] = field(default_factory=list)
    consistency: List[float] = field(default_factory=list)
    adaptivity: List[float] = field(default_factory=list)
    registry: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )

    def record(self, total: float, consistency: float, adaptivity: float) -> None:
        self.total.append(total)
        self.consistency.append(consistency)
        self.adaptivity.append(adaptivity)
        if self.registry is not None:
            self.registry.observe("trainer.loss.total", total)
            self.registry.observe("trainer.loss.consistency", consistency)
            self.registry.observe("trainer.loss.adaptivity", adaptivity)
            self.registry.emit(
                "trainer.epoch",
                {
                    "epoch": len(self.total) - 1,
                    "total": total,
                    "consistency": consistency,
                    "adaptivity": adaptivity,
                },
            )

    @property
    def final_loss(self) -> Optional[float]:
        return self.total[-1] if self.total else None


class GAlignTrainer:
    """Train a weight-shared multi-order GCN on an alignment pair (Alg 1).

    With ``config.compile`` the loss runs through
    :class:`~repro.core.training_loop.CompiledLoss`.

    Training is resilient by default: NaN/Inf losses or gradients and
    loss-spike divergence roll the run back to the last healthy snapshot
    with a halved learning rate (see :mod:`repro.resilience.recovery`),
    and ``checkpoint_path``/``resume_from`` give kill-safe resumability
    through v2 training checkpoints.  ``fault_injector`` wires the
    deterministic fault harness into the epoch loop for tests.
    """

    def __init__(
        self,
        config: GAlignConfig,
        rng: np.random.Generator,
        registry: Optional[MetricsRegistry] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config
        self.rng = rng
        #: Metrics sink; ``None`` falls back to the process registry at
        #: train time (so ``use_registry`` scopes apply).
        self.registry = registry
        self.fault_injector = fault_injector
        self.augmenter = GraphAugmenter(
            structure_noise=config.augment_structure_noise,
            attribute_noise=config.augment_attribute_noise,
            num_views=config.num_augmentations if config.use_augmentation else 0,
        )

    def train(
        self,
        pair: AlignmentPair,
        *,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[str] = None,
    ) -> tuple:
        """Run Alg 1 on the pair's two networks and return ``(model, log)``.

        The returned model's weights are shared by source, target, and all
        augmented views — the mechanism that keeps every embedding in one
        space (§V-D).  The weight-sharing ablation instead calls
        :meth:`train_single` once per network.

        ``checkpoint_path`` writes a v2 training checkpoint every
        ``checkpoint_every`` epochs; ``resume_from`` restores one and
        continues — the deterministic prefix (model init, augmented
        views) replays from the same seed, so the resumed run's final
        weights equal an uninterrupted run's.
        """
        registry = self.registry if self.registry is not None else get_registry()
        validate_pair(pair, registry=registry)
        model = MultiOrderGCN(pair.source.num_features, self.config, self.rng)
        log = self._optimize(
            [pair.source, pair.target],
            model,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        )
        return model, log

    def train_single(
        self,
        graph: AttributedGraph,
        *,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[str] = None,
    ) -> tuple:
        """Train on one network only (used by the weight-sharing ablation)."""
        registry = self.registry if self.registry is not None else get_registry()
        validate_graph(graph, registry=registry)
        model = MultiOrderGCN(graph.num_features, self.config, self.rng)
        log = self._optimize(
            [graph],
            model,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        )
        return model, log

    # ------------------------------------------------------------------
    def _optimize(
        self,
        networks: List[AttributedGraph],
        model: MultiOrderGCN,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[str] = None,
    ) -> TrainingLog:
        if not networks:
            raise ValueError("no networks to train on")
        config = self.config
        registry = self.registry if self.registry is not None else get_registry()
        optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        # Propagation matrices are constant across epochs: compute once.
        propagations = [propagation_matrix(graph) for graph in networks]
        # Alg 1 lines 4-5: fixed augmented views per input network.
        views: List[List[AugmentedView]] = [
            self.augmenter.augment(graph, self.rng) for graph in networks
        ]
        view_propagations = [
            [propagation_matrix(view.graph) for view in graph_views]
            for graph_views in views
        ]

        def losses() -> tuple:
            """Eq 9 per network over its views, then Eq 7 per network and
            Eq 10 over all; the total and each network's ``(J_c, J_a)``."""
            static = []
            for graph, propagation, graph_views, graph_view_props in zip(
                networks, propagations, views, view_propagations
            ):
                embeddings = model.forward(graph, propagation)
                j_adaptivity = None
                for view, view_prop in zip(graph_views, graph_view_props):
                    term = adaptivity_loss(
                        embeddings,
                        model.forward(view.graph, view_prop),
                        view.correspondence,
                        threshold=config.adaptivity_threshold,
                    )
                    j_adaptivity = (
                        term if j_adaptivity is None else j_adaptivity + term
                    )
                static.append((embeddings, j_adaptivity))
            total = None
            terms = []
            for propagation, (embeddings, j_adaptivity) in zip(
                propagations, static
            ):
                j_consistency = consistency_loss(propagation, embeddings)
                loss = combined_loss(j_consistency, j_adaptivity, config.gamma)
                total = loss if total is None else total + loss
                terms.append((j_consistency, j_adaptivity))
            return total, terms

        def report(losses: tuple) -> tuple:
            """``(total, consistency, adaptivity)``, the terms as floats."""
            total, terms = losses
            consistency_value = 0.0
            adaptivity_value = 0.0
            for j_consistency, j_adaptivity in terms:
                consistency_value += float(j_consistency.data)
                if j_adaptivity is not None:
                    adaptivity_value += float(j_adaptivity.data)
            return total, consistency_value, adaptivity_value

        # The loss is static (fixed propagations and views), so the tape
        # captures all of it.
        if config.compile:
            build = CompiledLoss(losses, dtype=config.compile_dtype)
        else:
            def build(_epoch: int) -> tuple:
                return losses()

        return run_resilient_training(
            model=model,
            optimizer=optimizer,
            config=config,
            registry=registry,
            log=TrainingLog(registry=registry),
            compute_losses=lambda epoch: report(build(epoch)),
            rng=self.rng,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            fault_injector=self.fault_injector,
        )
