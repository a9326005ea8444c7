"""Hyper-parameter configuration for GAlign (paper §VII-A defaults)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["GAlignConfig"]


@dataclass
class GAlignConfig:
    """All GAlign knobs, defaulting to the paper's tuned values.

    Paper §VII-A: γ = 0.8, β = 1.1, λ = 0.94, k = 2 GCN layers, equal layer
    weights θ(l) = 1/(k+1), embedding size 200.  The remaining values
    (epochs, learning rate, augmentation noise levels) follow the published
    GAlign reference implementation's order of magnitude, scaled to this
    repository's laptop-sized workloads.
    """

    # --- model (§V-A) ---
    #: Number of GCN layers k; embeddings H(0)..H(k) are all used.
    num_layers: int = 2
    #: Hidden/output dimension d(l) for every GCN layer.
    embedding_dim: int = 200
    #: Activation; paper argues for tanh over ReLU (§IV-A).
    activation: str = "tanh"

    # --- training (Alg 1) ---
    epochs: int = 60
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    #: Balance between consistency and adaptivity losses (Eq 10).
    gamma: float = 0.8
    #: Number of augmented copies per input network (§V-C).
    num_augmentations: int = 2
    #: Structural perturbation probability p_s for augmentation.
    augment_structure_noise: float = 0.1
    #: Attribute perturbation probability p_a for augmentation.
    augment_attribute_noise: float = 0.1
    #: σ_< threshold of the adaptivity loss (Eq 9): embedding differences
    #: above it are treated as destroyed neighbourhoods and masked out.
    adaptivity_threshold: float = 1.0
    #: Random seed for weight init / augmentation; None = nondeterministic.
    seed: Optional[int] = None

    # --- alignment instantiation (§VI-A) ---
    #: Importance weight θ(l) per layer (length k+1); None = uniform.
    layer_weights: Optional[Sequence[float]] = None

    # --- refinement (§VI-B, Alg 2) ---
    refinement_iterations: int = 20
    #: Stability confidence factor λ (Eq 13).
    stability_threshold: float = 0.94
    #: Influence accumulation constant β > 1 (Eq 14).
    influence_gain: float = 1.1

    # --- ablation switches (Table IV) ---
    #: GAlign-1 disables this: train with the adaptivity loss.
    use_augmentation: bool = True
    #: GAlign-2 disables this: run Alg 2 refinement.
    use_refinement: bool = True
    #: GAlign-3 disables this: aggregate all layers instead of only H(k).
    multi_order: bool = True
    #: Extra ablation (DESIGN.md #5): share weights between the two GCNs.
    share_weights: bool = True

    # --- compiled execution (repro.autograd.tape) ---
    #: Capture the first epoch's op graph into a tape and replay it for
    #: the remaining epochs: fused GCN kernels, buffer reuse, and no
    #: per-epoch Python graph rebuild.  Off by default; the CLI exposes
    #: it as ``align --compile`` / ``profile --compile``.
    compile: bool = False
    #: Replay precision. ``"float32"`` is the fast training policy
    #: (tolerance-checked against eager); ``"float64"`` replays
    #: bitwise-equal to eager execution.
    compile_dtype: str = "float32"

    # --- resilience (repro.resilience extension) ---
    #: Rollback/LR-halving budget for NaN/Inf/divergence recovery; beyond
    #: it training raises :class:`~repro.resilience.TrainingDivergedError`.
    max_recoveries: int = 3
    #: A loss above ``divergence_factor`` × best-seen counts as a spike.
    divergence_factor: float = 10.0
    #: Healthy epochs before spike detection arms (early training moves
    #: the loss by large factors legitimately).
    divergence_warmup: int = 5

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.influence_gain <= 1.0:
            raise ValueError(
                f"influence_gain (beta) must exceed 1, got {self.influence_gain}"
            )
        if self.activation not in ("tanh", "relu", "linear"):
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.compile_dtype not in ("float32", "float64"):
            raise ValueError(
                f"unsupported compile_dtype {self.compile_dtype!r}"
            )
        if self.max_recoveries < 0:
            raise ValueError(
                f"max_recoveries must be >= 0, got {self.max_recoveries}"
            )
        if self.divergence_factor <= 1.0:
            raise ValueError(
                f"divergence_factor must exceed 1, got {self.divergence_factor}"
            )
        if self.divergence_warmup < 0:
            raise ValueError(
                f"divergence_warmup must be >= 0, got {self.divergence_warmup}"
            )
        if self.layer_weights is not None:
            weights = list(self.layer_weights)
            if len(weights) != self.num_layers + 1:
                raise ValueError(
                    f"layer_weights needs k+1={self.num_layers + 1} entries, "
                    f"got {len(weights)}"
                )
            if any(w < 0.0 for w in weights):
                raise ValueError("layer_weights must be non-negative")

    def resolved_layer_weights(self) -> list:
        """θ(l) per layer; uniform 1/(k+1) when unset (paper default)."""
        if self.layer_weights is not None:
            return list(self.layer_weights)
        count = self.num_layers + 1
        return [1.0 / count] * count
