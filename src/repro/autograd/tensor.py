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
* Every op that builds a graph node is declared with
  :func:`~repro.autograd.dispatch.primitive`, the one seam through which
  the op profiler and the tape recorder observe it.
* Sparse inputs: graph convolutions multiply a *constant* sparse matrix
  (the normalized Laplacian) with a dense parameter-dependent matrix.  The
  sparse side never requires a gradient, so :func:`repro.autograd.ops.spmm`
  treats it as a constant and back-propagates through the dense side only.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dispatch import primitive

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


def _index_add(full: np.ndarray, index, grad: np.ndarray) -> None:
    """Accumulate ``grad`` into ``full`` at ``index`` (the getitem adjoint).

    ``np.add.at`` handles every indexing form but is an order of magnitude
    slower than slice assignment.  Basic indices (ints, slices, tuples of
    them) and boolean masks select each cell at most once, so
    ``full[index] += grad`` is exact there; a fancy integer index takes the
    same fast path only when it is duplicate-free, because repeated
    positions must *sum* and ``+=`` would keep just the last write.
    """
    if isinstance(index, (list, range)):
        index = np.asarray(index)
    if isinstance(index, np.ndarray):
        if index.dtype == bool:
            full[index] += grad
            return
        if index.ndim == 1 and np.unique(index).size == index.size:
            full[index] += grad
            return
        np.add.at(full, index, grad)
        return
    if isinstance(index, tuple) and any(
        isinstance(part, (np.ndarray, list, Tensor)) for part in index
    ):
        # Advanced indexing through a tuple can repeat positions; keep
        # the always-correct scatter.
        np.add.at(full, index, grad)
        return
    # Pure basic indexing (int / slice / tuple of them / Ellipsis /
    # newaxis): selections are disjoint by construction.
    full[index] += grad


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
        """Create an op result, wiring it into the graph when needed."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

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
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        # Drop intermediate gradient buffers: leaves keep accumulating
        # across calls (that is the contract optimizers rely on), but a
        # non-leaf retaining its grad would re-propagate old+new seed on
        # a second backward() over the same graph, double-counting every
        # leaf gradient.  Clearing here also frees the buffers early.
        for node in order:
            if node._backward is not None:
                node.grad = None

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
    @primitive("add")
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    @primitive("neg")
    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    @primitive("sub")
    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    @primitive("mul")
    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    @primitive("div")
    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    @primitive("pow")
    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    @primitive("matmul")
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product ``self @ other`` (2-D operands)."""
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other_t.data.T)
            if other_t.requires_grad:
                other_t._accumulate(self.data.T @ grad)

        return Tensor._make(out_data, (self, other_t), backward)

    __matmul__ = matmul

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).matmul(self)

    @primitive("transpose")
    def transpose(self) -> "Tensor":
        """2-D transpose."""
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(self.data.T, (self,), backward)

    @primitive("reshape")
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    @primitive("getitem")
    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            _index_add(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    @primitive("sum")
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, in_shape))

        return Tensor._make(out_data, (self,), backward)

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
    @primitive("tanh")
    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    @primitive("relu")
    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0))

        return Tensor._make(out_data, (self,), backward)

    @primitive("sigmoid")
    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    @primitive("exp")
    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    @primitive("log")
    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    @primitive("sqrt")
    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-300))

        return Tensor._make(out_data, (self,), backward)

    @primitive("abs")
    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    @primitive("clip_min")
    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)``; gradient passes where x > minimum."""
        out_data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > minimum))

        return Tensor._make(out_data, (self,), backward)
