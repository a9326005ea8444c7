"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the GCN model in
:mod:`repro.core`.  The paper's reference implementation uses PyTorch; this
engine provides the same capability (define-by-run computation graph, reverse
accumulation of gradients) for the operations the alignment model needs.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (always ``float64`` unless the
  caller passes something else) plus, when it participates in
  differentiation, a gradient buffer and a backward closure.
* The graph is built implicitly: every op records its parent tensors and a
  local vector-Jacobian product.  :meth:`Tensor.backward` topologically sorts
  the graph and accumulates gradients.
* Broadcasting follows numpy semantics; gradients of broadcast operands are
  reduced back to the operand's shape by :func:`_unbroadcast`.
* Every op builds its graph node through :func:`apply`, which runs the
  kind's entry in the op table (:mod:`repro.autograd.optable`): its
  forward now, its per-input VJPs at backward time.  ``apply`` is also
  the one seam through which the op profiler and the tape recorder
  observe eager ops.
* Sparse inputs: graph convolutions multiply a *constant* sparse matrix
  (the normalized Laplacian) with a dense parameter-dependent matrix.  The
  sparse side never requires a gradient, so :func:`repro.autograd.ops.spmm`
  treats it as a constant and back-propagates through the dense side only.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dispatch import observers
from .optable import OPS, Op

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


class _GradMode:
    """Process-wide switch for gradient recording (mirrors torch.no_grad)."""

    enabled: bool = True


class no_grad:
    """Context manager that disables graph construction.

    Inside the block every op behaves like plain numpy: no parents are
    recorded and ``requires_grad`` of results is False.  Used by inference
    paths (alignment refinement, evaluation) to avoid holding graphs alive.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GradMode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return True when ops currently record the computation graph."""
    return _GradMode.enabled


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    numpy broadcasting can (a) prepend axes and (b) stretch length-1 axes.
    The adjoint of broadcasting sums over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def accumulated(current: Optional[np.ndarray], grad: np.ndarray,
                like: np.ndarray, adopt: bool) -> np.ndarray:
    """``current`` plus one gradient contribution for the value ``like``.

    The contribution is cast to ``like``'s dtype and unbroadcast to its
    shape.  A leaf (``adopt=False``) copies its first contribution and
    adds later ones in place: clipping and the optimizers write parameter
    gradients in place, so a leaf must own its buffer.  A graph node
    (``adopt=True``) keeps its first C-contiguous contribution as is and
    allocates ``current + grad`` for a later one, never writing into an
    array it adopted; that relies on no VJP writing into its incoming
    gradient.  ``a + b`` has the bits of ``a.copy(); a += b``, so both
    rules give the same values and every gradient is C-contiguous, as a
    copy would be.  Eager (:meth:`Tensor._accumulate`) and the tape's
    reverse pass accumulate through this one function.
    """
    grad = _unbroadcast(np.asarray(grad, dtype=like.dtype), like.shape)
    if current is None:
        return grad if adopt and grad.flags.c_contiguous else grad.copy()
    if adopt:
        return np.add(current, grad, order="C")
    current += grad
    return current


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.
    requires_grad:
        When True (and grad mode is enabled) operations on this tensor
        build a computation graph that :meth:`backward` can traverse.
    name:
        Optional label used in ``repr`` and error messages; handy for
        debugging model parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    # Make numpy defer mixed ndarray-Tensor operators to this class's
    # reflected methods (e.g. ndarray @ Tensor → Tensor.__rmatmul__) instead
    # of silently coercing the Tensor into an object array.
    __array_ufunc__ = None

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    @staticmethod
    def _item_error() -> float:
        raise ValueError("item() requires a tensor with exactly one element")

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        """Return a graph-free deep copy."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient buffer."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op result, wiring it into the graph when needed.

        The raw node constructor; only :func:`apply` calls it (linted).
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        self.grad = accumulated(
            self.grad, grad, self.data, adopt=self._backward is not None
        )

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Accumulate gradients of this tensor w.r.t. all graph leaves.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar tensors; required
            (and must match ``self.shape``) otherwise.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() on non-scalar tensor requires an explicit gradient")
            grad = np.ones_like(self.data)
        seed = np.asarray(_as_array(grad), dtype=self.data.dtype)
        if seed.shape != self.data.shape:
            seed = np.broadcast_to(seed, self.data.shape).copy()

        order = self._topological_order()
        self._accumulate(seed)
        # A non-leaf's gradient is complete when its turn comes; it is
        # handed to the node's backward and dropped, so each buffer is
        # freed once used.  Leaves keep accumulating across calls (the
        # contract optimizers rely on), but a non-leaf retaining its grad
        # would re-propagate old+new seed on a second backward() over the
        # same graph, double-counting every leaf gradient.
        for node in order:
            if node._backward is not None and node.grad is not None:
                grad, node.grad = node.grad, None
                node._backward(grad)

    def _topological_order(self) -> list:
        """Nodes reachable from self, outputs first (reverse topological)."""
        seen: set = set()
        order: list = []
        stack: list = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply("add", (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply("neg", (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return apply("sub", (self, other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return apply("sub", (other, self))

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply("mul", (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply("div", (self, other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return apply("div", (other, self))

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return apply("pow", (self,), exponent=exponent)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product ``self @ other`` (2-D operands)."""
        return apply("matmul", (self, other))

    __matmul__ = matmul

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return apply("matmul", (other, self))

    def transpose(self) -> "Tensor":
        """2-D transpose."""
        return apply("transpose", (self,))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", (self,), shape=shape)

    def __getitem__(self, index) -> "Tensor":
        return apply("getitem", (self,), index=index)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply("sum", (self,), axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities (used by the GCN and baselines)
    # ------------------------------------------------------------------
    def tanh(self) -> "Tensor":
        return apply("tanh", (self,))

    def relu(self) -> "Tensor":
        return apply("relu", (self,))

    def sigmoid(self) -> "Tensor":
        return apply("sigmoid", (self,))

    def exp(self) -> "Tensor":
        return apply("exp", (self,))

    def log(self) -> "Tensor":
        return apply("log", (self,))

    def sqrt(self) -> "Tensor":
        return apply("sqrt", (self,))

    def abs(self) -> "Tensor":
        return apply("abs", (self,))

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)``; gradient passes where x > minimum."""
        return apply("clip_min", (self,), minimum=minimum)


def apply(kind: str, operands: Sequence[ArrayLike], **meta) -> Tensor:
    """Run the op table's ``kind`` on ``operands``: the one seam of eager ops.

    Wraps raw operands as constant (float64) tensors, computes the
    forward, builds the graph node (parents in operand order, so eager's
    topological and gradient-accumulation orders follow the call), and
    notifies the thread's observers with ``(kind, inputs, meta, out,
    started, elapsed)``, ``inputs`` being the wrapped operands.
    """
    stack = observers()
    started = time.perf_counter() if stack else 0.0
    inputs = [
        value if isinstance(value, Tensor) else Tensor(value)
        for value in operands
    ]
    entry = OPS[kind]
    ins = [tensor.data for tensor in inputs]
    data = entry.forward(ins, meta, None)
    out = Tensor._make(
        data, inputs,
        lambda grad: _backprop(entry, inputs, ins, data, meta, grad),
    )
    if stack:
        elapsed = time.perf_counter() - started
        for observer in stack:
            observer.op(kind, inputs, meta, out, started, elapsed)
    return out


def _backprop(entry: Op, inputs: Sequence[Tensor], ins: list,
              out: np.ndarray, meta: dict, grad: np.ndarray) -> None:
    """A node's backward: each grad-requiring input gets its VJP."""
    if entry.pullback is not None:
        grad = entry.pullback(grad, ins, out, meta)
    for position, tensor in enumerate(inputs):
        if tensor.requires_grad:
            tensor._accumulate(entry.vjps[position](grad, ins, out, meta))
