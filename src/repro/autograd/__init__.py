"""Numpy-backed reverse-mode autodiff engine.

This subpackage replaces the paper's PyTorch dependency: a define-by-run
computation graph over numpy arrays with the operations, optimizers, and
initializers the GAlign model and the embedding-based baselines need.

Quick example::

    from repro.autograd import Tensor, Adam

    w = Tensor([[1.0, 2.0]], requires_grad=True)
    x = Tensor([[3.0], [4.0]])
    loss = (w @ x).sum()
    loss.backward()
    Adam([w], lr=0.1).step()
"""

from .tensor import Tensor, no_grad, is_grad_enabled
from .ops import (
    spmm,
    concat,
    stack,
    frobenius_norm,
    gram_residual_norm,
    normalize_rows,
    gated_row_distance,
    softmax,
    log_softmax,
)
from .optim import Adam, clip_grad_norm
from . import init
from . import nn
from .gradcheck import gradcheck, numerical_gradient
from .tape import Tape, TapeRecorder

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "spmm",
    "concat",
    "stack",
    "frobenius_norm",
    "gram_residual_norm",
    "normalize_rows",
    "gated_row_distance",
    "softmax",
    "log_softmax",
    "Adam",
    "clip_grad_norm",
    "init",
    "nn",
    "gradcheck",
    "numerical_gradient",
    "Tape",
    "TapeRecorder",
]
