"""Fault tolerance for the training/refinement/eval stack.

Four pieces, threaded through :mod:`repro.core` and the CLI:

* :mod:`~repro.resilience.errors` — the exception taxonomy
  (:class:`GraphValidationError`, :class:`TrainingDivergedError`,
  :class:`SimulatedKill`, :class:`InjectedFault`).
* :mod:`~repro.resilience.validation` — structured input validation at
  trainer/refiner/CLI entry points.
* :mod:`~repro.resilience.recovery` — NaN/Inf/divergence detection with
  snapshot rollback and learning-rate halving.
* :mod:`~repro.resilience.faults` — deterministic fault injection
  (NaN gradients, exceptions, simulated kills) so every recovery path
  is exercised by tests.

All recovery, fallback, and fault actions emit ``resilience.*`` counters
and events through the :mod:`repro.observability` registry, so BENCH
exports record how eventful a run was.  See "Resilience & recovery" in
``docs/architecture.md`` for the metric taxonomy.
"""

from .breaker import CircuitBreaker
from .errors import (
    AnnParameterError,
    ArtifactValidationError,
    DeadlineExceededError,
    GraphValidationError,
    InjectedFault,
    SimulatedKill,
    TrainingDivergedError,
    WorkerCrashError,
)
from .faults import (
    FAULT_KINDS,
    SERVING_FAULT_KINDS,
    TRAINING_FAULT_KINDS,
    Fault,
    FaultInjector,
)
from .recovery import RecoveryManager
from .validation import validate_graph, validate_pair

__all__ = [
    "GraphValidationError",
    "ArtifactValidationError",
    "AnnParameterError",
    "TrainingDivergedError",
    "DeadlineExceededError",
    "WorkerCrashError",
    "InjectedFault",
    "SimulatedKill",
    "Fault",
    "FaultInjector",
    "FAULT_KINDS",
    "TRAINING_FAULT_KINDS",
    "SERVING_FAULT_KINDS",
    "CircuitBreaker",
    "RecoveryManager",
    "validate_graph",
    "validate_pair",
]
