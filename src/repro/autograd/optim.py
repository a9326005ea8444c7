"""Gradient-descent optimizers for :class:`~repro.autograd.Tensor` parameters.

The paper trains GAlign with Adam (§VII-A); the embedding baselines use it
too.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .tensor import Tensor

__all__ = ["Adam", "clip_grad_norm"]


class Adam:
    """Adam (Kingma & Ba, 2015) — the optimizer used by the paper (§VII-A)."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        for param in self.params:
            if not param.requires_grad:
                raise ValueError(f"parameter {param!r} does not require grad")
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        """Clear gradient buffers on every parameter."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad * grad
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        """Copy of the optimizer's internal state (checkpointing/rollback)."""
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state saved by :meth:`state_dict`."""
        if len(state["m"]) != len(self.params) or len(state["v"]) != len(
            self.params
        ):
            raise ValueError(
                f"state has {len(state['m'])}/{len(state['v'])} moment "
                f"buffers for {len(self.params)} parameters"
            )
        for name, buffers in (("m", state["m"]), ("v", state["v"])):
            for param, buffer in zip(self.params, buffers):
                if buffer.shape != param.data.shape:
                    raise ValueError(
                        f"optimizer {name} buffer shape {buffer.shape} does "
                        f"not match parameter shape {param.data.shape}"
                    )
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._step_count = int(state["step_count"])
        self._m = [m.copy() for m in state["m"]]
        self._v = [v.copy() for v in state["v"]]


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Clip the global gradient norm in place; return the pre-clip norm.

    A NaN/Inf gradient makes the norm non-finite, and every comparison
    against a NaN norm is False — silently skipping the clip and handing
    the poisoned gradients straight to the optimizer.  That failure mode
    raises :class:`~repro.resilience.TrainingDivergedError` instead, so
    callers either crash loudly or route the epoch into recovery.
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if not np.isfinite(total):
        # Imported lazily: repro.autograd must stay importable without
        # pulling in the resilience (and transitively serving) packages.
        from ..resilience.errors import TrainingDivergedError

        raise TrainingDivergedError(
            f"gradient norm is non-finite ({total}); refusing to pass "
            "unclipped NaN/Inf gradients to the optimizer"
        )
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for param in params:
            param.grad *= scale
    return total
