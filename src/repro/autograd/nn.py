"""Small neural-network module layer over the autograd engine.

Mirrors the subset of ``torch.nn`` the baselines need: a ``Module`` base
with parameter collection and train/eval mode, ``Linear``, activations,
``Sequential`` composition and ``mse_loss``.

The core GAlign model (:class:`repro.core.MultiOrderGCN`) manages its
weights directly; ``nn`` builds DeepLink's mapping MLPs on the same
engine.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .tensor import Tensor
from . import init as _init

__all__ = [
    "Module",
    "Linear",
    "Tanh",
    "Sequential",
    "mse_loss",
]


class Module:
    """Base class: tracks sub-modules and parameters, train/eval mode."""

    def __init__(self) -> None:
        self._modules: List["Module"] = []
        self._parameters: List[Tensor] = []
        self.training = True

    def register_parameter(self, parameter: Tensor) -> Tensor:
        if not parameter.requires_grad:
            raise ValueError("registered parameters must require grad")
        self._parameters.append(parameter)
        return parameter

    def register_module(self, module: "Module") -> "Module":
        self._modules.append(module)
        return module

    def parameters(self) -> List[Tensor]:
        """All trainable tensors of this module and its children."""
        found = list(self._parameters)
        for child in self._modules:
            found.extend(child.parameters())
        return found

    def train(self) -> "Module":
        self.training = True
        for child in self._modules:
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for child in self._modules:
            child.eval()
        return self

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W + b`` with Xavier-uniform weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"feature sizes must be >= 1, got {in_features}, {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            _init.xavier_uniform((in_features, out_features), rng, name="weight")
        )
        self.bias: Optional[Tensor] = None
        if bias:
            self.bias = self.register_parameter(
                _init.zeros((out_features,), name="bias")
            )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Feed-forward composition of modules."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for module in modules:
            self.register_module(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[index]


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    difference = prediction - target
    return (difference * difference).mean()
