"""Weight initialization schemes for autograd parameters.

GAlign's GCN layers are initialized with Xavier/Glorot uniform (the PyTorch
GCN default).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = [
    "xavier_uniform",
    "uniform",
    "zeros",
]


def _fan(shape: tuple) -> tuple:
    if len(shape) < 2:
        raise ValueError(f"fan-based init needs at least a 2-D shape, got {shape}")
    fan_in, fan_out = shape[0], shape[1]
    return fan_in, fan_out


def xavier_uniform(shape: tuple, rng: np.random.Generator, gain: float = 1.0, name=None) -> Tensor:
    """Glorot uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fan(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True, name=name)


def uniform(shape: tuple, rng: np.random.Generator, low: float = -0.1, high: float = 0.1, name=None) -> Tensor:
    """Plain uniform init in [low, high)."""
    if low >= high:
        raise ValueError(f"low must be < high, got [{low}, {high})")
    return Tensor(rng.uniform(low, high, size=shape), requires_grad=True, name=name)


def zeros(shape: tuple, name=None) -> Tensor:
    """All-zero trainable tensor (bias vectors)."""
    return Tensor(np.zeros(shape), requires_grad=True, name=name)
