"""End-to-end GAlign facade (paper Fig 2).

Pipeline: multi-order embedding (Alg 1, §V) → alignment instantiation
(§VI-A) → refinement (Alg 2, §VI-B).  Fully unsupervised: the optional
``supervision`` argument of :meth:`GAlign.align` is ignored by design (R3).

Ablation variants from Table IV are configuration flags:

* ``use_augmentation=False``  → GAlign-1 (consistency loss only)
* ``use_refinement=False``    → GAlign-2 (raw multi-order alignment)
* ``multi_order=False``       → GAlign-3 (final-layer embeddings only)
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..base import AlignmentMethod
from ..graphs import AlignmentPair
from .alignment import aggregate_alignment, layerwise_alignment_matrices
from .config import GAlignConfig
from .refine import AlignmentRefiner
from .trainer import GAlignTrainer

__all__ = ["GAlign"]


class GAlign(AlignmentMethod):
    """Unsupervised multi-order GCN network alignment.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core import GAlign, GAlignConfig
    >>> from repro.graphs import generators, noisy_copy_pair
    >>> rng = np.random.default_rng(0)
    >>> graph = generators.barabasi_albert(50, 2, rng, feature_dim=8)
    >>> pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.05)
    >>> result = GAlign(GAlignConfig(epochs=20, embedding_dim=32)).align(pair, rng=rng)
    >>> result.scores.shape == (50, 50)
    True
    """

    name = "GAlign"
    requires_supervision = False
    uses_attributes = True

    def __init__(
        self,
        config: Optional[GAlignConfig] = None,
        pretrained_model=None,
    ) -> None:
        self.config = config if config is not None else GAlignConfig()
        #: A pre-trained :class:`MultiOrderGCN` (e.g. from
        #: :func:`~repro.core.checkpoint.load_model`); when set,
        #: :meth:`align` skips training and goes straight to alignment.
        self.pretrained_model = pretrained_model
        #: When set, training writes v2 checkpoints here every
        #: ``checkpoint_every`` epochs (kill-safe resumability).
        self.checkpoint_path: Optional[str] = None
        self.checkpoint_every: int = 1
        #: When set, training resumes from this v2 checkpoint.
        self.resume_from: Optional[str] = None
        #: Optional fault-injection harness threaded into the trainer.
        self.fault_injector = None
        #: Populated after :meth:`align`: training and refinement diagnostics.
        self.training_log = None
        self.refinement_log = None
        self.model = None
        self.target_model = None

    # ------------------------------------------------------------------
    def _align_scores(
        self,
        pair: AlignmentPair,
        supervision: Optional[Dict[int, int]],
        rng: np.random.Generator,
    ) -> np.ndarray:
        # R3: unsupervised — anchor supervision is deliberately unused.
        config = self.config
        if config.seed is not None:
            rng = np.random.default_rng(config.seed)

        if self.pretrained_model is not None:
            if self.pretrained_model.input_dim != pair.source.num_features:
                raise ValueError(
                    f"pretrained model expects input_dim="
                    f"{self.pretrained_model.input_dim}, the pair has "
                    f"{pair.source.num_features} attributes"
                )
            self.model = self.pretrained_model
            self.target_model = self.pretrained_model
            self.training_log = None
        else:
            trainer = GAlignTrainer(
                config, rng, fault_injector=self.fault_injector
            )
            if config.share_weights:
                self.model, self.training_log = trainer.train(
                    pair,
                    checkpoint_path=self.checkpoint_path,
                    checkpoint_every=self.checkpoint_every,
                    resume_from=self.resume_from,
                )
                self.target_model = self.model
            else:
                if self.checkpoint_path or self.resume_from:
                    raise ValueError(
                        "training checkpoints cover one shared-weight "
                        "model; they are unsupported with "
                        "share_weights=False"
                    )
                # Weight-sharing ablation: embed each side with its own
                # model, which leaves the two embedding spaces unreconciled.
                self.model, self.training_log = trainer.train_single(
                    pair.source
                )
                self.target_model, _ = trainer.train_single(pair.target)

        if config.use_refinement:
            refiner = AlignmentRefiner(config)
            scores, self.refinement_log = refiner.refine(
                pair, self.model, self.target_model
            )
            if not config.multi_order:
                # GAlign-3 under refinement: last-layer scores only, but from
                # the refiner's best-iteration (influence-weighted) embeddings
                # — re-embedding with the default propagation would discard
                # the refinement loop's work.
                source_last = self.refinement_log.best_source_embeddings[-1]
                target_last = self.refinement_log.best_target_embeddings[-1]
                scores = source_last @ target_last.T
            return scores

        self.refinement_log = None
        return (
            self._multi_order_scores(pair)
            if config.multi_order
            else self._last_layer_scores(pair)
        )

    # ------------------------------------------------------------------
    def _multi_order_scores(self, pair: AlignmentPair) -> np.ndarray:
        matrices = layerwise_alignment_matrices(
            self.model.embed(pair.source), self.target_model.embed(pair.target)
        )
        return aggregate_alignment(matrices, self.config.resolved_layer_weights())

    def _last_layer_scores(self, pair: AlignmentPair) -> np.ndarray:
        source_last = self.model.embed(pair.source)[-1]
        target_last = self.target_model.embed(pair.target)[-1]
        return source_last @ target_last.T
