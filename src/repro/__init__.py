"""repro — reproduction of GAlign (ICDE 2020).

*Adaptive Network Alignment with Unsupervised and Multi-order Convolutional
Networks* (Huynh Thanh Trung et al.), built from scratch in Python:

* :mod:`repro.core` — the GAlign framework (multi-order GCN, augmented
  training, alignment refinement).
* :mod:`repro.autograd` — numpy reverse-mode autodiff substrate.
* :mod:`repro.graphs` — attributed graphs, generators, noise, datasets.
* :mod:`repro.baselines` — REGAL, IsoRank, FINAL, PALE, CENALP.
* :mod:`repro.metrics` — Success@q, MAP, AUC, matchings.
* :mod:`repro.analysis` — t-SNE / embedding diagnostics.
* :mod:`repro.eval` — experiment runner and paper-style reporting.
* :mod:`repro.observability` — metrics registry, tracing, BENCH export.
* :mod:`repro.resilience` — input validation, NaN/divergence recovery,
  fault injection, resumable-training support.
* :mod:`repro.serving` — online query serving: memory-mapped alignment
  artifacts, an exact top-k index, a microbatched/cached query
  engine, and a stdlib JSON HTTP API.
* :mod:`repro.parallel` — process-pool scheduler with shared-memory
  array passing; hyper-parameter search, experiment sweeps, and
  streamed scoring fan out over workers while staying bit-identical
  to serial execution (``REPRO_WORKERS`` / ``--workers``).

Quickstart::

    import numpy as np
    from repro import GAlign, GAlignConfig
    from repro.graphs import generators, noisy_copy_pair
    from repro.metrics import evaluate_alignment

    rng = np.random.default_rng(0)
    graph = generators.barabasi_albert(200, 2, rng, feature_dim=16)
    pair = noisy_copy_pair(graph, rng, structure_noise_ratio=0.1)
    result = GAlign(GAlignConfig(epochs=40, embedding_dim=64)).align(pair)
    print(evaluate_alignment(result.scores, pair.groundtruth))
"""

from .base import AlignmentMethod, AlignmentResult
from .core import GAlign, GAlignConfig
from .observability import MetricsRegistry, get_registry, use_registry
from .resilience import GraphValidationError, TrainingDivergedError

__version__ = "1.0.0"

__all__ = [
    "AlignmentMethod",
    "AlignmentResult",
    "GAlign",
    "GAlignConfig",
    "MetricsRegistry",
    "get_registry",
    "use_registry",
    "GraphValidationError",
    "TrainingDivergedError",
    "__version__",
]
