"""The op table: every autograd primitive, written once.

Each :class:`Op` entry holds everything the engine knows about one op
kind, in the manner of HIPS autograd's ``defvjp``:

* ``forward(ins, meta, out)`` — the op over numpy arrays: ``ins`` are the
  tensor operands' values, ``meta`` the constant operands (exponent,
  index, axis, CSR matrix, ...), and ``out`` a preallocated destination
  (``None`` for a fresh array; only ``out_capable`` kinds honour it);
* ``vjps`` — one vector-Jacobian product per input,
  ``vjp(g, ins, out, meta)``, returning that input's gradient before
  unbroadcasting (the accumulating side does that);
* ``flops(in_shapes, out_shape, meta)`` — (forward, backward) FLOP
  estimates from static shapes;
* ``reads`` — the values the VJPs read: input positions and/or ``"out"``;
* ``view`` / ``out_capable`` / ``inplace`` — whether the result may be a
  view of an input, whether ``forward`` can write into ``out=``, and
  whether that ``out`` may be an input's own buffer.

Three readers share the table: eager autograd
(:func:`repro.autograd.tensor.apply` runs ``forward`` and closes over the
VJPs), the tape compiler (:class:`repro.autograd.tape.Tape` builds each
kernel from the entry and plans buffers from its facts), and the
profiler (FLOPs).  Eager and tape run the same functions on the same
arrays, so the float64 tape is bitwise equal to eager by construction.

``gcn_layer``, the tape's fused Eq 1 kernel ``σ(C H W)``, is a composite:
its forward chains the ``matmul``, ``spmm`` and activation entries, its
``pullback`` carries ``g`` back through the activation and ``spmm`` VJPs
once, and its per-input VJPs are ``matmul``'s.

Alg 1's loss tail is three entries that eager builds too, so the tape
needs no pass for them.  The first two each do in one pass per
direction what a chain of elementwise entries did one n×d pass per op.

* ``normalize_rows`` — ``x / sqrt(Σx² + eps)`` per row (Eq 11's cosine
  rows); the forward keeps the norms and the VJP is
  ``(g − out·rowsum(g·out)) / norms``.
* ``gated_row_distance`` — one layer's Eq 9 term
  ``Σ_v σ_<(‖A(v) − B(π(v))‖)``: gather, subtract, row norm, gate and
  sum.  The gradient into B is a gather through ``π⁻¹``, worked out
  once when the op is built (``π`` must be a permutation).
* ``gram_residual_norm`` — Eq 7's ``‖C − H Hᵀ‖_F`` through
  ``‖C‖² − 2⟨H, CH⟩ + ‖HᵀH‖²``, without the n×n Gram.  ``‖C‖²`` and
  whether ``C = Cᵀ`` are decided at the first forward; a symmetric C
  (the propagation matrix of any unweighted graph) reuses the
  forward's ``CH`` for the backward's ``CᵀH``, so forward and backward
  run one sparse product between them.

Entries whose backward needs an intermediate keep it in ``meta``
(``pre``, ``norms``, ``difference``, ``propagated``): a forward always
runs before its backward, in eager and on a tape alike.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Op", "OPS"]

Forward = Callable[[Sequence[np.ndarray], dict, Optional[np.ndarray]],
                   np.ndarray]
Vjp = Callable[[np.ndarray, Sequence[np.ndarray], np.ndarray, dict],
               np.ndarray]
Flops = Callable[[Sequence[tuple], tuple, dict], Tuple[int, int]]


def _elementwise_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    """About one FLOP per output element, each way."""
    size = math.prod(out_shape)
    return size, size


def _no_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    """Data movement."""
    return 0, 0


class Op:
    """One autograd primitive kind (see the module docstring)."""

    __slots__ = ("forward", "vjps", "flops", "reads", "pullback", "view",
                 "out_capable", "inplace")

    def __init__(self, forward: Forward, vjps: Sequence[Vjp], *,
                 flops: Flops = _elementwise_flops, reads: tuple = (),
                 pullback: Optional[Vjp] = None, view: bool = False,
                 out_capable: bool = False, inplace: bool = False) -> None:
        self.forward = forward
        self.vjps = vjps
        self.flops = flops
        self.reads = reads
        #: Optional ``g -> g'`` applied once before the per-input VJPs.
        self.pullback = pullback
        self.view = view
        self.out_capable = out_capable
        self.inplace = inplace


class _Each:
    """The VJPs of a variadic op: one function, told the input position."""

    __slots__ = ("vjp",)

    def __init__(self, vjp: Callable) -> None:
        self.vjp = vjp

    def __getitem__(self, position: int) -> Vjp:
        vjp = self.vjp
        return lambda g, ins, out, meta: vjp(position, g, ins, out, meta)


OPS: Dict[str, Op] = {}


def _define(kind: str, forward: Forward, vjps, **facts) -> Op:
    OPS[kind] = Op(forward, vjps, **facts)
    return OPS[kind]


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
        isinstance(part, (np.ndarray, list)) for part in index
    ):
        # Advanced indexing through a tuple can repeat positions; keep
        # the always-correct scatter.
        np.add.at(full, index, grad)
        return
    # Pure basic indexing (int / slice / tuple of them / Ellipsis /
    # newaxis): selections are disjoint by construction.
    full[index] += grad


# -- elementwise arithmetic ---------------------------------------------
def _binary(ufunc) -> Forward:
    return lambda ins, meta, out: ufunc(ins[0], ins[1], out=out)


#: Elementwise kinds write into ``out=``, an input's dying buffer included.
_ELEMENTWISE = dict(out_capable=True, inplace=True)

_define("add", _binary(np.add), (
    lambda g, ins, out, meta: g,
    lambda g, ins, out, meta: g,
), **_ELEMENTWISE)
_define("sub", _binary(np.subtract), (
    lambda g, ins, out, meta: g,
    lambda g, ins, out, meta: -g,
), **_ELEMENTWISE)
_define("mul", _binary(np.multiply), (
    lambda g, ins, out, meta: g * ins[1],
    lambda g, ins, out, meta: g * ins[0],
), reads=(0, 1), **_ELEMENTWISE)
_define("div", _binary(np.divide), (
    lambda g, ins, out, meta: g / ins[1],
    lambda g, ins, out, meta: -g * ins[0] / (ins[1] ** 2),
), reads=(0, 1), **_ELEMENTWISE)
_define("neg", lambda ins, meta, out: np.negative(ins[0], out=out), (
    lambda g, ins, out, meta: -g,
), **_ELEMENTWISE)
_define("pow",
        lambda ins, meta, out: np.power(ins[0], meta["exponent"], out=out), (
    lambda g, ins, out, meta: (
        g * meta["exponent"] * ins[0] ** (meta["exponent"] - 1)
    ),
), reads=(0,), **_ELEMENTWISE)


# -- matrix ops and data movement ----------------------------------------
def _matmul_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    """``2mkn`` forward; the reverse pass is two matmuls."""
    m, k = in_shapes[0] if len(in_shapes[0]) == 2 else (1, 1)
    n = math.prod(out_shape) // m if m else 0
    forward = 2 * m * k * n
    return forward, 2 * forward


_MATMUL = _define("matmul", _binary(np.matmul), (
    lambda g, ins, out, meta: g @ ins[1].T,
    lambda g, ins, out, meta: ins[0].T @ g,
), flops=_matmul_flops, reads=(0, 1), out_capable=True)
_define("transpose", lambda ins, meta, out: ins[0].T, (
    lambda g, ins, out, meta: g.T,
), flops=_no_flops, view=True)
_define("reshape", lambda ins, meta, out: ins[0].reshape(meta["shape"]), (
    lambda g, ins, out, meta: g.reshape(ins[0].shape),
), flops=_no_flops, view=True)


def _getitem_vjp(g, ins, out, meta) -> np.ndarray:
    full = np.zeros_like(ins[0])
    _index_add(full, meta["index"], g)
    return full


_define("getitem", lambda ins, meta, out: ins[0][meta["index"]],
        (_getitem_vjp,), flops=_no_flops, view=True)


def _concat_vjp(position, g, ins, out, meta) -> np.ndarray:
    axis = meta["axis"]
    start = sum(value.shape[axis] for value in ins[:position])
    index = [slice(None)] * g.ndim
    index[axis] = slice(start, start + ins[position].shape[axis])
    return g[tuple(index)]


def _stack_vjp(position, g, ins, out, meta) -> np.ndarray:
    return np.moveaxis(g, meta["axis"], 0)[position]


_define("concat",
        lambda ins, meta, out: np.concatenate(ins, axis=meta["axis"]),
        _Each(_concat_vjp), flops=_no_flops)
_define("stack", lambda ins, meta, out: np.stack(ins, axis=meta["axis"]),
        _Each(_stack_vjp), flops=_no_flops)


# -- reductions ---------------------------------------------------------
def _sum(ins, meta, out) -> np.ndarray:
    return ins[0].sum(axis=meta["axis"], keepdims=meta["keepdims"], out=out)


def _sum_vjp(g, ins, out, meta) -> np.ndarray:
    axis = meta["axis"]
    if axis is not None and not meta["keepdims"]:
        g = np.expand_dims(g, axis=axis)
    return np.broadcast_to(g, ins[0].shape)


def _sum_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    size = math.prod(in_shapes[0])
    return size, size


_define("sum", _sum, (_sum_vjp,), flops=_sum_flops, out_capable=True)


# -- elementwise nonlinearities -----------------------------------------
_define("tanh", lambda ins, meta, out: np.tanh(ins[0], out=out), (
    lambda g, ins, out, meta: g * (1.0 - out ** 2),
), reads=("out",), **_ELEMENTWISE)
_define("relu", lambda ins, meta, out: np.maximum(ins[0], 0.0, out=out), (
    lambda g, ins, out, meta: g * (ins[0] > 0.0),
), reads=(0,), **_ELEMENTWISE)
_define("sigmoid", lambda ins, meta, out: (
    1.0 / (1.0 + np.exp(-np.clip(ins[0], -60.0, 60.0)))
), (
    lambda g, ins, out, meta: g * out * (1.0 - out),
), reads=("out",))
_define("exp", lambda ins, meta, out: (
    np.exp(np.clip(ins[0], -700.0, 700.0), out=out)
), (
    lambda g, ins, out, meta: g * out,
), reads=("out",), **_ELEMENTWISE)
_define("log", lambda ins, meta, out: np.log(ins[0], out=out), (
    lambda g, ins, out, meta: g / ins[0],
), reads=(0,), **_ELEMENTWISE)
_define("sqrt", lambda ins, meta, out: np.sqrt(ins[0], out=out), (
    lambda g, ins, out, meta: g * 0.5 / np.maximum(out, 1e-300),
), reads=("out",), **_ELEMENTWISE)
_define("abs", lambda ins, meta, out: np.abs(ins[0], out=out), (
    lambda g, ins, out, meta: g * np.sign(ins[0]),
), reads=(0,), **_ELEMENTWISE)
_define("clip_min", lambda ins, meta, out: (
    np.maximum(ins[0], meta["minimum"], out=out)
), (
    lambda g, ins, out, meta: g * (ins[0] > meta["minimum"]),
), reads=(0,), **_ELEMENTWISE)


def _softmax(ins, meta, out) -> np.ndarray:
    axis = meta["axis"]
    shifted = ins[0] - ins[0].max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def _softmax_vjp(g, ins, out, meta) -> np.ndarray:
    inner = (g * out).sum(axis=meta["axis"], keepdims=True)
    return out * (g - inner)


def _log_softmax(ins, meta, out) -> np.ndarray:
    axis = meta["axis"]
    shifted = ins[0] - ins[0].max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - log_z


def _log_softmax_vjp(g, ins, out, meta) -> np.ndarray:
    inner = g.sum(axis=meta["axis"], keepdims=True)
    return g - np.exp(out) * inner


def _softmax_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    size = 4 * math.prod(out_shape)
    return size, size


_define("softmax", _softmax, (_softmax_vjp,),
        flops=_softmax_flops, reads=("out",))
_define("log_softmax", _log_softmax, (_log_softmax_vjp,),
        flops=_softmax_flops, reads=("out",))


# -- sparse propagation and the fused GCN layer (Eq 1) -------------------
def _spmm_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    """``2·nnz·d``; the reverse pass is one transposed spmm."""
    columns = out_shape[-1] if out_shape else 1
    forward = 2 * int(meta["csr"].nnz) * int(columns)
    return forward, forward


#: The sparse operand is a constant in ``meta``: only the dense side
#: gets a gradient (``C.T @ g``).
_SPMM = _define(
    "spmm", lambda ins, meta, out: np.asarray(meta["csr"] @ ins[0]), (
        lambda g, ins, out, meta: meta["csr"].T @ g,
    ), flops=_spmm_flops,
)


def _gcn_forward(ins, meta, out) -> np.ndarray:
    hidden = _MATMUL.forward(ins, meta, None)
    # Kept for the pullback: relu's VJP reads its input.
    meta["pre"] = _SPMM.forward((hidden,), meta, None)
    return OPS[meta["activation"]].forward((meta["pre"],), meta, out)


def _gcn_pullback(g, ins, out, meta) -> np.ndarray:
    """``g`` at the layer's output -> ``g`` at its matmul's output."""
    g = OPS[meta["activation"]].vjps[0](g, (meta["pre"],), out, meta)
    return _SPMM.vjps[0](g, (), None, meta)  # reads only the CSR matrix


def _gcn_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    hidden = (in_shapes[0][0], in_shapes[1][-1])
    parts = (
        _MATMUL.flops(in_shapes, hidden, meta),
        _SPMM.flops((hidden,), out_shape, meta),
        OPS[meta["activation"]].flops((out_shape,), out_shape, meta),
    )
    return sum(part[0] for part in parts), sum(part[1] for part in parts)


_define("gcn_layer", _gcn_forward, _MATMUL.vjps, pullback=_gcn_pullback,
        flops=_gcn_flops, reads=(0, 1, "out"))


# -- the loss tail: row normalization, Eq 9 and Eq 7 ----------------------
def _row_squares(matrix: np.ndarray) -> np.ndarray:
    """Each row's squared norm, in one pass and no temporary."""
    return np.einsum("ij,ij->i", matrix, matrix)


def _normalize_rows(ins, meta, out) -> np.ndarray:
    """``x / sqrt(Σx² + eps)`` per row; the norms are kept for the VJP."""
    matrix = ins[0]
    meta["norms"] = np.sqrt(_row_squares(matrix) + meta["eps"])[:, None]
    return np.divide(matrix, meta["norms"], out=out)


def _normalize_rows_vjp(g, ins, out, meta) -> np.ndarray:
    """``(g − out·rowsum(g·out)) / norms``."""
    grad = out * np.einsum("ij,ij->i", g, out)[:, None]
    np.subtract(g, grad, out=grad)
    grad /= meta["norms"]
    return grad


def _normalize_rows_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    size = math.prod(out_shape)
    return 3 * size, 5 * size


_define("normalize_rows", _normalize_rows, (_normalize_rows_vjp,),
        flops=_normalize_rows_flops, reads=("out",), **_ELEMENTWISE)


def _gated_row_distance(ins, meta, out) -> np.ndarray:
    """Eq 9's ``Σ_v σ_<(‖A(v) − B(π(v))‖)``: gather, subtract, row norm,
    gate and sum.  The differences and each row's gated ``1/norm`` (0
    where the gate drops the row) are kept for the pullback."""
    original, augmented = ins
    difference = augmented[meta["correspondence"]]
    np.subtract(original, difference, out=difference)
    norms = np.sqrt(_row_squares(difference) + meta["eps"])
    kept = norms < meta["threshold"]
    meta["difference"] = difference
    meta["scale"] = np.where(kept, 1.0 / norms, 0.0)
    # A 0-d array, not a numpy scalar: a later op may write into it.
    return np.asarray(np.where(kept, norms, 0.0).sum())


def _gated_row_distance_pullback(g, ins, out, meta) -> np.ndarray:
    """``g`` at the sum -> ``g`` at each row difference."""
    return meta["difference"] * (g * meta["scale"])[:, None]


def _gated_row_distance_augmented_vjp(g, ins, out, meta) -> np.ndarray:
    """Row ``π(v)`` of B gets ``−g(v)``: a gather through ``π⁻¹``."""
    grad = g[meta["inverse"]]
    return np.negative(grad, out=grad)


def _gated_row_distance_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    size = math.prod(in_shapes[0])
    return 3 * size, 2 * size


_define("gated_row_distance", _gated_row_distance, (
    lambda g, ins, out, meta: g,
    _gated_row_distance_augmented_vjp,
), pullback=_gated_row_distance_pullback, flops=_gated_row_distance_flops)


def _target_facts(csr) -> Tuple[float, bool]:
    """``‖C‖²`` and whether ``C = Cᵀ`` (compared as stored, so an
    explicit zero without its mirror reads as asymmetric)."""
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    transposed = csr.T.tocsr()
    symmetric = all(
        np.array_equal(mine, theirs) for mine, theirs in (
            (csr.indptr, transposed.indptr),
            (csr.indices, transposed.indices),
            (csr.data, transposed.data),
        )
    )
    return float(np.vdot(csr.data, csr.data)), symmetric


def _gram_residual_norm(ins, meta, out) -> np.ndarray:
    """``‖C − H Hᵀ‖_F`` as ``sqrt(‖C‖² − 2⟨H, CH⟩ + ‖HᵀH‖² + eps)``.

    The clamp at zero absorbs the rounding of a residual that cancels
    to nothing.  ``‖C‖²`` and C's symmetry are worked out at the first
    forward and kept in ``meta``, so a tape replays without them.
    """
    hidden, csr = ins[0], meta["csr"]
    if "target_sq" not in meta:
        meta["target_sq"], meta["symmetric"] = _target_facts(csr)
    # Kept for the VJP, as ``gcn_layer`` keeps ``pre``.
    meta["propagated"] = np.asarray(csr @ hidden)
    meta["gram"] = hidden.T @ hidden
    squared = (
        meta["target_sq"]
        - 2.0 * np.vdot(hidden, meta["propagated"])
        + np.vdot(meta["gram"], meta["gram"])
    )
    return np.sqrt(np.maximum(squared, 0.0) + meta["eps"])


def _gram_residual_norm_vjp(g, ins, out, meta) -> np.ndarray:
    """``g/(2·out) · (4·H(HᵀH) − 2·(C + Cᵀ)H)``; a symmetric C reuses
    the forward's ``CH`` for ``CᵀH``."""
    hidden = ins[0]
    grad = hidden @ meta["gram"]
    grad *= 4.0
    grad -= 2.0 * meta["propagated"]
    transposed = (
        meta["propagated"] if meta["symmetric"]
        else np.asarray(meta["csr"].T @ hidden)
    )
    grad -= 2.0 * transposed
    grad *= g / (2.0 * out)
    return grad


def _gram_residual_norm_flops(in_shapes, out_shape, meta) -> Tuple[int, int]:
    """One spmm and one ``d×d`` Gram forward; the Gram product and, for
    an asymmetric C, a second spmm backward; plus the inner products."""
    rows, columns = in_shapes[0]
    spmm = 2 * int(meta["csr"].nnz) * columns
    gram = 2 * rows * columns * columns
    backward_spmm = 0 if meta["symmetric"] else spmm
    return (spmm + gram + 2 * rows * columns + 2 * columns * columns,
            backward_spmm + gram + 4 * rows * columns)


_define("gram_residual_norm", _gram_residual_norm, (_gram_residual_norm_vjp,),
        flops=_gram_residual_norm_flops, reads=(0, "out"))
