"""GAlign core: multi-order GCN embedding, augmented training, refinement."""

from .config import GAlignConfig
from .model import MultiOrderGCN
from .losses import consistency_loss, adaptivity_loss, combined_loss
from .augment import AugmentedView, GraphAugmenter
from .trainer import GAlignTrainer, TrainingLog
from .alignment import (
    layerwise_alignment_matrices,
    aggregate_alignment,
    alignment_quality,
)
from .refine import (
    apply_influence_gain,
    AlignmentRefiner,
    RefinementLog,
)
from .galign import GAlign
from .instantiation import (
    AnchorLink,
    one_to_many,
)
from .checkpoint import (
    save_model,
    load_model,
    save_training_checkpoint,
    load_training_checkpoint,
    TrainingCheckpoint,
)
from .training_loop import run_resilient_training
from .streaming import (
    streaming_top_k,
    streaming_evaluate,
    find_stable_nodes,
    StreamingAligner,
)

__all__ = [
    "GAlignConfig",
    "MultiOrderGCN",
    "consistency_loss",
    "adaptivity_loss",
    "combined_loss",
    "AugmentedView",
    "GraphAugmenter",
    "GAlignTrainer",
    "TrainingLog",
    "layerwise_alignment_matrices",
    "aggregate_alignment",
    "alignment_quality",
    "find_stable_nodes",
    "apply_influence_gain",
    "AlignmentRefiner",
    "RefinementLog",
    "GAlign",
    "streaming_top_k",
    "streaming_evaluate",
    "StreamingAligner",
    "AnchorLink",
    "one_to_many",
    "save_model",
    "load_model",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "TrainingCheckpoint",
    "run_resilient_training",
]
