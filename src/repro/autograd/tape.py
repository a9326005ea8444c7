"""Tape capture and fused replay for the static training graph.

GAlign's training graph is *static*: every epoch rebuilds exactly the same
define-by-run op sequence over new parameter values (the propagation
matrices, augmented views, and loss structure are all fixed after setup).
Eager execution pays for that rebuild every epoch — one Python call, one
closure allocation, and one garbage graph per op.  This module removes the
rebuild in the spirit of drjit's recorded loops and HIPS-autograd's
explicit tape:

* :class:`TapeRecorder` is an observer of the op-dispatch seam
  (:mod:`repro.autograd.dispatch`): for the duration of ONE eager epoch
  it records every primitive the capturing thread runs into an explicit
  tape: op kind, input/output value slots, and constant operands (the
  CSR Laplacian, scalar coefficients, index arrays).
* :meth:`TapeRecorder.finalize` turns the recording into a :class:`Tape`:
  kernels are compiled once into per-op callables (no per-epoch closure
  allocation), graph-level passes run — GCN-layer fusion, single-consumer
  buffer reuse — and the dtype policy is applied.
* :meth:`Tape.replay` re-executes the graph against the parameters' live
  values and returns ordinary output :class:`~repro.autograd.Tensor`
  objects whose ``backward()`` runs the tape's hand-scheduled reverse
  pass, accumulating into the parameters' ``.grad`` exactly like eager.

Observers on the thread see compiled execution through the same seam:
each replayed kernel (forward and backward), plus two bookkeeping rows —
``tape.capture`` (recording and finalize, outside the recorded ops) and
``tape.overhead`` (the replay and reverse-pass loops outside kernels).

Bitwise contract
----------------
In ``float64`` the replay is *bitwise equal* to eager execution, forward
and backward.  Forward kernels repeat the eager numpy expressions verbatim
in capture order; the reverse pass replays the op backwards in the order
eager's depth-first topological sort would fire them (recorded from the
capture epoch's graph — reverse-creation order is **not** the same and
would reorder gradient accumulation), and gradient accumulation mirrors
``Tensor._accumulate`` (unbroadcast, cast to the slot dtype, copy-then-add)
slot by slot.  The fused GCN kernel keeps the contract because its three
constituent adjoints are applied in the same order, on the same arrays,
with single-consumer intermediates (asserted in ``tests/test_tape.py``).

Optimization passes
-------------------
* **Fusion** — the GCN layer pattern ``matmul → spmm → tanh|relu`` (Eq 1's
  ``σ(C H W)``) collapses into one ``gcn_layer`` op with a hand-written
  fused backward, eliminating the intermediate graph nodes.  It applies
  only when both intermediates are single-consumer and neither is a tape
  output or watch value.
* **Buffer reuse** — every non-view op output of static shape gets a
  persistent ``out=`` buffer, so steady-state replay allocates almost
  nothing; where the tape proves an input is single-consumer, op-produced,
  not aliased by a view, and not needed by any backward, the op writes
  straight into the input's buffer (in-place execution).
* **Dtype policy** — ``float64`` replay is the bitwise oracle;
  ``float32`` replay casts constants once at finalize and parameters per
  replay, runs the whole graph in single precision (≈2× on BLAS-bound
  layers), and accumulates parameter gradients back into the ``float64``
  masters.  ``float32`` results are tolerance-checked against the
  ``float64`` oracle, never bitwise.

When eager falls back
---------------------
Capture covers one recorder context; anything data-dependent (the sampled
trainer's per-epoch anchor batches) must stay outside the context and run
eagerly on top of the replayed outputs (see
:class:`~repro.core.sampling.SampledGAlignTrainer`).  A tensor produced by
an op *outside* the capture window cannot join the tape (its history is
unknown) and raises at capture time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from . import dispatch
from .tensor import Tensor, _index_add, _unbroadcast

__all__ = ["TapeRecorder", "Tape", "watch"]


_SLOT_PARAM = 0
_SLOT_CONST = 1
_SLOT_OP = 2

#: Op kinds whose outputs are (or may be) numpy views of their input —
#: they own no memory, so they never get persistent buffers and their
#: sources are never overwritten in place.
_VIEW_KINDS = frozenset({"transpose", "reshape", "getitem"})

#: Kinds whose compiled forward can write into a preallocated ``out=``
#: buffer of the (static) output shape.
_OUT_CAPABLE = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "matmul", "tanh", "relu",
    "sqrt", "abs", "log", "clip_min", "exp", "sum",
})

#: Elementwise kinds that may additionally alias their output onto a
#: dying input's buffer (ufunc in-place is well-defined; matmul is not).
_INPLACE_CAPABLE = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "tanh", "relu",
    "sqrt", "abs", "log", "clip_min", "exp",
})

def _positional(args: tuple, kwargs: dict, position: int, name: str,
                default: Any) -> Any:
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _split_op(kind: str, args: tuple, kwargs: dict) -> Tuple[tuple, dict]:
    """Split an op call into (tensor-operand values, constant meta)."""
    if kind in ("add", "sub", "mul", "div", "matmul"):
        return (args[0], args[1]), {}
    if kind == "pow":
        return (args[0],), {"exponent": args[1]}
    if kind == "getitem":
        index = args[1]
        if isinstance(index, np.ndarray):
            index = index.copy()
        elif isinstance(index, tuple):
            index = tuple(
                part.copy() if isinstance(part, np.ndarray) else part
                for part in index
            )
        elif isinstance(index, list):
            index = list(index)
        return (args[0],), {"index": index}
    if kind == "sum":
        return (args[0],), {
            "axis": _positional(args, kwargs, 1, "axis", None),
            "keepdims": bool(_positional(args, kwargs, 2, "keepdims", False)),
        }
    if kind == "clip_min":
        return (args[0],), {"minimum": args[1]}
    if kind == "spmm":
        return (args[1],), {"csr": args[0].tocsr()}
    if kind in ("concat", "stack"):
        return tuple(args[0]), {
            "axis": int(_positional(args, kwargs, 1, "axis", 0))
        }
    if kind == "threshold_mask":
        return (args[0],), {"threshold": args[1]}
    if kind in ("softmax", "log_softmax"):
        return (args[0],), {
            "axis": _positional(args, kwargs, 1, "axis", -1)
        }
    # Unary tensor methods (neg, transpose, reshape, tanh, ...).
    return (args[0],), {}


class _TapeOp:
    """One executable tape entry (compiled at finalize time)."""

    __slots__ = ("kind", "inputs", "out", "meta", "fwd", "bwd",
                 "flops", "bwd_flops", "shape")

    def __init__(self, kind: str, inputs: Tuple[int, ...], out: int,
                 meta: dict) -> None:
        self.kind = kind
        self.inputs = inputs
        self.out = out
        self.meta = meta
        self.fwd: Optional[Callable[[], None]] = None
        self.bwd: Optional[Callable[[list, np.ndarray], None]] = None
        self.flops = 0
        self.bwd_flops = 0
        self.shape: tuple = ()


def watch(tensor: Tensor, label: str) -> Tensor:
    """Register ``tensor``'s value under ``label`` for replay read-back.

    A no-op outside capture.  During capture the tensor's slot is
    recorded; :meth:`Tape.replay` returns ``{label: value}`` with values
    summed in registration order starting from ``0.0`` — the same float
    accumulation an eager ``value += float(t.data)`` loop performs, so
    watched diagnostics stay bitwise comparable in float64.
    """
    for observer in dispatch.observers():
        if isinstance(observer, TapeRecorder):
            observer._watch(tensor, label)
    return tensor


class TapeRecorder(dispatch.Observer):
    """Capture one eager epoch's op stream into a tape.

    Usage::

        recorder = TapeRecorder()
        with recorder:
            total, *diagnostics = compute_losses(0)   # eager, recorded
        tape = recorder.finalize(outputs=[total])
        ...
        (total,), watched = tape.replay()             # later epochs
    """

    def __init__(self) -> None:
        #: Slot kind per slot id.
        self.slot_kinds: List[int] = []
        #: Parameter Tensor per param slot (read live at every replay).
        self.slot_params: Dict[int, Tensor] = {}
        #: Captured constant array per const slot.
        self.slot_consts: Dict[int, np.ndarray] = {}
        #: Static shape / dtype / requires-grad per slot.
        self.slot_shapes: List[tuple] = []
        self.slot_requires: List[bool] = []
        self.ops: List[_TapeOp] = []
        self.watches: List[Tuple[str, int]] = []
        self._slot_by_id: Dict[int, int] = {}
        self._op_index_by_out_id: Dict[int, int] = {}
        self._keepalive: List[Tensor] = []
        self._entered = False
        self._started = 0.0
        #: Capture window length and the recorded ops' share of it.
        self._window = 0.0
        self._op_time = 0.0

    # -- context management --------------------------------------------
    def __enter__(self) -> "TapeRecorder":
        if self._entered:
            raise RuntimeError("a TapeRecorder cannot be re-entered")
        if any(isinstance(observer, TapeRecorder)
               for observer in dispatch.observers()):
            raise RuntimeError(
                "another TapeRecorder is already capturing on this "
                "thread; captures cannot nest"
            )
        self._entered = True
        self._started = time.perf_counter()
        dispatch.attach(self)
        return self

    def __exit__(self, *exc_info) -> None:
        dispatch.detach(self)
        self._window = time.perf_counter() - self._started

    def op(self, kind: str, args: tuple, kwargs: dict, out: Tensor,
           started: float, elapsed: float) -> None:
        self._op_time += elapsed
        self._record(kind, args, kwargs, out)

    # -- slot bookkeeping ----------------------------------------------
    def _new_slot(self, kind: int, shape: tuple, requires: bool) -> int:
        slot = len(self.slot_kinds)
        self.slot_kinds.append(kind)
        self.slot_shapes.append(shape)
        self.slot_requires.append(requires)
        return slot

    def _slot_for(self, value: Any) -> int:
        if isinstance(value, Tensor):
            slot = self._slot_by_id.get(id(value))
            if slot is not None:
                return slot
            if value.requires_grad and value._backward is not None:
                raise RuntimeError(
                    "a tensor produced by an op outside the capture "
                    "window flowed into the tape; capture the whole "
                    "loss computation inside one recorder context"
                )
            self._keepalive.append(value)
            if value.requires_grad:
                slot = self._new_slot(_SLOT_PARAM, value.data.shape, True)
                self.slot_params[slot] = value
            else:
                slot = self._new_slot(_SLOT_CONST, value.data.shape, False)
                self.slot_consts[slot] = value.data
            self._slot_by_id[id(value)] = slot
            return slot
        # Raw scalar/array operand: eager wraps it in Tensor(value)
        # (float64 coercion) — snapshot the same conversion.
        data = np.asarray(value, dtype=np.float64)
        slot = self._new_slot(_SLOT_CONST, data.shape, False)
        self.slot_consts[slot] = data
        return slot

    def _record(self, kind: str, args: tuple, kwargs: dict,
                out: Tensor) -> None:
        operands, meta = _split_op(kind, args, kwargs)
        input_slots = tuple(self._slot_for(value) for value in operands)
        out_slot = self._new_slot(_SLOT_OP, out.data.shape,
                                  out.requires_grad)
        self._slot_by_id[id(out)] = out_slot
        self._op_index_by_out_id[id(out)] = len(self.ops)
        self._keepalive.append(out)
        self.ops.append(_TapeOp(kind, input_slots, out_slot, meta))

    def _watch(self, tensor: Tensor, label: str) -> None:
        self.watches.append((label, self._slot_for(tensor)))

    # -- finalize -------------------------------------------------------
    def finalize(
        self,
        outputs: Sequence[Tensor],
        order_root: Optional[Tensor] = None,
        *,
        fuse: bool = True,
        reuse_buffers: bool = True,
        dtype: str = "float64",
    ) -> "Tape":
        """Compile the recording into an executable :class:`Tape`.

        Parameters
        ----------
        outputs:
            Tensors (recorded during capture) whose values — and, via
            their replay stand-ins, gradients — the caller needs every
            epoch.
        order_root:
            Tensor whose eager graph fixes the backward execution order
            (it must reach every gradient-receiving output).  Defaults to
            ``outputs[0]``.  For hybrid static/dynamic training this is
            the capture epoch's *final* eager loss, so the tape replays
            its reverse pass in exactly the order eager used.
        fuse / reuse_buffers:
            Toggle the fusion and buffer-reuse passes (both default on;
            the test matrix exercises all four combinations).
        dtype:
            ``"float64"`` (bitwise oracle) or ``"float32"`` (fast
            training policy).
        """
        started = time.perf_counter()
        if self._entered is False:
            raise RuntimeError("finalize() requires a completed capture")
        if self in dispatch.observers():
            raise RuntimeError("finalize() must be called after the "
                               "recorder context exits")
        if dtype not in ("float64", "float32"):
            raise ValueError(f"unsupported tape dtype {dtype!r}")
        output_slots = []
        for tensor in outputs:
            slot = self._slot_by_id.get(id(tensor))
            if slot is None:
                raise ValueError(
                    "output tensor was not recorded by this capture"
                )
            output_slots.append(slot)
        if order_root is None:
            if len(outputs) != 1:
                raise ValueError(
                    "order_root is required for multi-output tapes"
                )
            order_root = outputs[0]
        # Backward order: the op indices in the order the capture
        # epoch's eager backward would fire them (outputs first).
        backward_order = [
            self._op_index_by_out_id[id(node)]
            for node in order_root._topological_order()
            if id(node) in self._op_index_by_out_id
            and self.slot_requires[
                self.ops[self._op_index_by_out_id[id(node)]].out
            ]
        ]
        reached = {self.ops[i].out for i in backward_order}
        for slot in output_slots:
            if self.slot_requires[slot] and slot not in reached:
                raise ValueError(
                    "order_root does not reach a gradient-receiving "
                    "output; pass the capture epoch's final loss"
                )
        tape = Tape(
            recorder=self,
            output_slots=output_slots,
            backward_order=backward_order,
            fuse=fuse,
            reuse_buffers=reuse_buffers,
            dtype=dtype,
        )
        dispatch.overhead(
            "tape.capture", "forward",
            self._window - self._op_time + time.perf_counter() - started,
        )
        return tape


def _op_flops(kind: str, in_shapes: Sequence[tuple], out_shape: tuple,
              meta: dict) -> Tuple[int, int]:
    """(forward, backward) FLOP estimates from static shapes."""
    out_size = int(np.prod(out_shape)) if out_shape else 1
    if kind == "matmul":
        m, k = in_shapes[0] if len(in_shapes[0]) == 2 else (1, 1)
        n = out_size // m if m else 0
        forward = 2 * m * k * n
        return forward, 2 * forward
    if kind == "spmm":
        cols = out_shape[-1] if out_shape else 1
        forward = 2 * int(meta["csr"].nnz) * int(cols)
        return forward, forward
    if kind == "gcn_layer":
        m, k = in_shapes[0]
        n = in_shapes[1][-1]
        matmul = 2 * m * k * n
        spmm = 2 * int(meta["csr"].nnz) * int(n)
        return matmul + spmm + out_size, 2 * matmul + spmm + out_size
    if kind in ("transpose", "reshape", "getitem", "concat", "stack"):
        return 0, 0
    if kind in ("softmax", "log_softmax"):
        return 4 * out_size, 4 * out_size
    if kind == "sum":
        in_size = int(np.prod(in_shapes[0])) if in_shapes[0] else 1
        return in_size, in_size
    return out_size, out_size


#: Per-kind value dependencies of the backward kernel: which of the op's
#: slots ("in0", "in1", "out") must still hold their forward value when
#: the reverse pass runs.  Drives buffer-reuse safety.
_BACKWARD_READS: Dict[str, Tuple[str, ...]] = {
    "mul": ("in0", "in1"),
    "div": ("in0", "in1"),
    "pow": ("in0",),
    "matmul": ("in0", "in1"),
    "tanh": ("out",),
    "relu": ("in0",),
    "sigmoid": ("out",),
    "exp": ("out",),
    "log": ("in0",),
    "sqrt": ("out",),
    "abs": ("in0",),
    "clip_min": ("in0",),
    "threshold_mask": ("in0",),
    "softmax": ("out",),
    "log_softmax": ("out",),
    "gcn_layer": ("in0", "in1", "out"),
}


class Tape:
    """An executable, optimized recording of one training epoch.

    Construct via :meth:`TapeRecorder.finalize`.  Not thread-safe: one
    replay at a time (the value buffers are shared across replays, and a
    replay's outputs are valid until the next replay begins).
    """

    def __init__(self, recorder: TapeRecorder, output_slots: List[int],
                 backward_order: List[int], fuse: bool,
                 reuse_buffers: bool, dtype: str) -> None:
        self.dtype = np.float32 if dtype == "float32" else np.float64
        self.fused = 0
        self.inplace = 0
        self.buffered = 0
        self._watches = list(recorder.watches)
        self._output_slots = list(output_slots)
        self._slot_kinds = list(recorder.slot_kinds)
        self._slot_shapes = list(recorder.slot_shapes)
        self._slot_requires = list(recorder.slot_requires)
        self._params = dict(recorder.slot_params)
        self._values: List[Optional[np.ndarray]] = (
            [None] * len(self._slot_kinds)
        )
        # Constants (and CSR operands below) are cast once, here.
        for slot, array in recorder.slot_consts.items():
            if array.dtype != self.dtype and np.issubdtype(
                array.dtype, np.floating
            ):
                array = array.astype(self.dtype)
            self._values[slot] = array
        ops = [
            _TapeOp(op.kind, op.inputs, op.out, dict(op.meta))
            for op in recorder.ops
        ]
        for op in ops:
            if "csr" in op.meta and op.meta["csr"].dtype != self.dtype:
                op.meta["csr"] = op.meta["csr"].astype(self.dtype)
        forward, backward_order = (
            self._fuse(ops, backward_order) if fuse
            else (ops, list(backward_order))
        )
        self._forward = forward
        self._backward_ops = [forward[i] for i in backward_order]
        self._plan_buffers(reuse_buffers)
        for op in self._forward:
            in_shapes = [self._slot_shapes[s] for s in op.inputs]
            op.shape = self._slot_shapes[op.out]
            op.flops, op.bwd_flops = _op_flops(
                op.kind, in_shapes, op.shape, op.meta
            )
            op.fwd = self._build_fwd(op)
            op.bwd = self._build_bwd(op)

    # -- graph passes ---------------------------------------------------
    def _consumer_counts(self, ops: List[_TapeOp]) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for op in ops:
            for slot in op.inputs:
                counts[slot] = counts.get(slot, 0) + 1
        for slot in self._output_slots:
            counts[slot] = counts.get(slot, 0) + 1
        for _label, slot in self._watches:
            counts[slot] = counts.get(slot, 0) + 1
        return counts

    def _fuse(self, ops: List[_TapeOp],
              backward_order: List[int]) -> Tuple[List[_TapeOp], List[int]]:
        """Collapse ``matmul → spmm → tanh|relu`` chains into gcn_layer.

        The fused op takes the matmul's position in both the forward and
        backward schedules: its backward accumulates into H and W at the
        exact point eager's matmul backward would, and the dropped
        intermediate slots are single-consumer, so no other accumulation
        order changes — the float64 bitwise contract survives fusion.
        """
        counts = self._consumer_counts(ops)
        consumer_of: Dict[int, int] = {}
        for index, op in enumerate(ops):
            for slot in op.inputs:
                if counts.get(slot) == 1:
                    consumer_of[slot] = index
        replaced: Dict[int, Optional[_TapeOp]] = {}
        for index, op in enumerate(ops):
            if op.kind != "matmul" or index in replaced:
                continue
            spmm_index = consumer_of.get(op.out)
            if spmm_index is None or ops[spmm_index].kind != "spmm":
                continue
            spmm_op = ops[spmm_index]
            act_index = consumer_of.get(spmm_op.out)
            if act_index is None or ops[act_index].kind not in (
                "tanh", "relu"
            ):
                continue
            act_op = ops[act_index]
            fused = _TapeOp(
                "gcn_layer", op.inputs, act_op.out,
                {"csr": spmm_op.meta["csr"],
                 "activation": ops[act_index].kind},
            )
            self._slot_requires[fused.out] = (
                self._slot_requires[act_op.out]
            )
            replaced[index] = fused
            replaced[spmm_index] = None
            replaced[act_index] = None
            self.fused += 1
        if not self.fused:
            return ops, list(backward_order)
        new_ops: List[_TapeOp] = []
        new_index: Dict[int, int] = {}
        for index, op in enumerate(ops):
            if index in replaced:
                if replaced[index] is None:
                    continue
                op = replaced[index]
            new_index[index] = len(new_ops)
            new_ops.append(op)
        new_backward = [
            new_index[i] for i in backward_order if i in new_index
        ]
        return new_ops, new_backward

    def _plan_buffers(self, reuse_buffers: bool) -> None:
        """Assign persistent out= buffers and in-place targets."""
        self._out_buffer: Dict[int, np.ndarray] = {}
        self._inplace_from: Dict[int, int] = {}
        if not reuse_buffers:
            return
        ops = self._forward
        counts = self._consumer_counts(ops)
        # Alias groups: a view shares its source's memory, so any slot
        # aliased by another may never be overwritten in place.
        alias_root: Dict[int, int] = {}
        aliased: set = set()
        view_out: set = set()
        for op in ops:
            if op.kind in _VIEW_KINDS:
                root = alias_root.get(op.inputs[0], op.inputs[0])
                alias_root[op.out] = root
                aliased.add(root)
                aliased.add(op.out)
                view_out.add(op.out)
        # Values any backward kernel still needs (only ops that will
        # actually run a backward protect their reads).
        backward_needs: set = set()
        for op in ops:
            if not self._slot_requires[op.out]:
                continue
            for ref in _BACKWARD_READS.get(op.kind, ()):
                if ref == "out":
                    backward_needs.add(op.out)
                else:
                    position = int(ref[2:])
                    if position < len(op.inputs):
                        backward_needs.add(op.inputs[position])
        protected = set(self._output_slots)
        protected.update(slot for _label, slot in self._watches)
        protected.update(backward_needs)
        protected.update(aliased)
        for op in ops:
            if op.kind not in _OUT_CAPABLE or op.out in view_out:
                continue
            shape = self._slot_shapes[op.out]
            if op.kind in _INPLACE_CAPABLE:
                for slot in op.inputs:
                    if (
                        self._slot_kinds[slot] == _SLOT_OP
                        and counts.get(slot) == 1
                        and slot not in protected
                        and slot not in view_out
                        and self._slot_shapes[slot] == shape
                    ):
                        self._inplace_from[op.out] = slot
                        self.inplace += 1
                        break
            if op.out in self._inplace_from:
                continue
            if op.out in set(self._output_slots):
                # Outputs stay freshly allocated: the caller may hold
                # the returned tensor past the next replay.
                continue
            self._out_buffer[op.out] = np.empty(shape, dtype=self.dtype)
            self.buffered += 1

    # -- kernel compilation --------------------------------------------
    def _out_for(self, op: _TapeOp) -> Callable[[], Optional[np.ndarray]]:
        values = self._values
        buffer = self._out_buffer.get(op.out)
        source = self._inplace_from.get(op.out)
        if source is not None:
            return lambda: values[source]
        if buffer is not None:
            return lambda: buffer
        return lambda: None

    def _build_fwd(self, op: _TapeOp) -> Callable[[], None]:
        """One zero-argument forward kernel, allocated once.

        Every kernel repeats the eager op's numpy expression verbatim so
        the float64 replay is bitwise-equal; ``out=`` only redirects the
        destination buffer, never the arithmetic.
        """
        values = self._values
        kind, meta, out = op.kind, op.meta, op.out
        ins = op.inputs
        out_arr = self._out_for(op)
        ufuncs = {
            "add": np.add, "sub": np.subtract, "mul": np.multiply,
            "div": np.divide, "matmul": np.matmul,
        }
        if kind in ufuncs:
            ufunc, a, b = ufuncs[kind], ins[0], ins[1]

            def fwd():
                values[out] = ufunc(values[a], values[b], out=out_arr())
            return fwd
        a = ins[0] if ins else -1
        if kind == "neg":
            return lambda: values.__setitem__(
                out, np.negative(values[a], out=out_arr())
            )
        if kind == "pow":
            exponent = meta["exponent"]
            return lambda: values.__setitem__(
                out, np.power(values[a], exponent, out=out_arr())
            )
        if kind == "transpose":
            return lambda: values.__setitem__(out, values[a].T)
        if kind == "reshape":
            shape = self._slot_shapes[out]
            return lambda: values.__setitem__(
                out, values[a].reshape(shape)
            )
        if kind == "getitem":
            index = meta["index"]
            return lambda: values.__setitem__(out, values[a][index])
        if kind == "sum":
            axis, keepdims = meta["axis"], meta["keepdims"]

            def fwd():
                values[out] = values[a].sum(
                    axis=axis, keepdims=keepdims, out=out_arr()
                )
            return fwd
        if kind == "tanh":
            return lambda: values.__setitem__(
                out, np.tanh(values[a], out=out_arr())
            )
        if kind == "relu":
            return lambda: values.__setitem__(
                out, np.maximum(values[a], 0.0, out=out_arr())
            )
        if kind == "sigmoid":
            return lambda: values.__setitem__(
                out, 1.0 / (1.0 + np.exp(-np.clip(values[a], -60.0, 60.0)))
            )
        if kind == "exp":
            return lambda: values.__setitem__(
                out, np.exp(np.clip(values[a], -700.0, 700.0),
                            out=out_arr())
            )
        if kind == "log":
            return lambda: values.__setitem__(
                out, np.log(values[a], out=out_arr())
            )
        if kind == "sqrt":
            return lambda: values.__setitem__(
                out, np.sqrt(values[a], out=out_arr())
            )
        if kind == "abs":
            return lambda: values.__setitem__(
                out, np.abs(values[a], out=out_arr())
            )
        if kind == "clip_min":
            minimum = meta["minimum"]
            return lambda: values.__setitem__(
                out, np.maximum(values[a], minimum, out=out_arr())
            )
        if kind == "spmm":
            csr = meta["csr"]
            return lambda: values.__setitem__(
                out, np.asarray(csr @ values[a])
            )
        if kind in ("concat", "stack"):
            axis = meta["axis"]
            join = np.concatenate if kind == "concat" else np.stack
            slots = ins
            return lambda: values.__setitem__(
                out, join([values[s] for s in slots], axis=axis)
            )
        if kind == "threshold_mask":
            threshold = meta["threshold"]

            def fwd():
                keep = values[a] < threshold
                values[out] = np.where(keep, values[a], 0.0)
            return fwd
        if kind == "softmax":
            axis = meta["axis"]

            def fwd():
                logits = values[a]
                shifted = logits - logits.max(axis=axis, keepdims=True)
                exp = np.exp(shifted)
                values[out] = exp / exp.sum(axis=axis, keepdims=True)
            return fwd
        if kind == "log_softmax":
            axis = meta["axis"]

            def fwd():
                logits = values[a]
                shifted = logits - logits.max(axis=axis, keepdims=True)
                log_z = np.log(np.exp(shifted).sum(
                    axis=axis, keepdims=True
                ))
                values[out] = shifted - log_z
            return fwd
        if kind == "gcn_layer":
            csr, activation = meta["csr"], meta["activation"]
            h, w = ins
            scratch = meta.setdefault("scratch", [None])
            out_arr_fn = out_arr

            def fwd():
                pre = np.asarray(csr @ (values[h] @ values[w]))
                if activation == "tanh":
                    values[out] = np.tanh(pre, out=out_arr_fn())
                else:
                    scratch[0] = pre
                    values[out] = np.maximum(pre, 0.0, out=out_arr_fn())
            return fwd
        raise AssertionError(f"no forward kernel for op kind {kind!r}")

    def _acc(self, grads: list, slot: int, grad: np.ndarray) -> None:
        """Mirror ``Tensor._accumulate`` for a tape slot."""
        kind = self._slot_kinds[slot]
        if kind == _SLOT_PARAM:
            self._params[slot]._accumulate(grad)
            return
        if kind == _SLOT_CONST:
            return
        value = self._values[slot]
        grad = _unbroadcast(
            np.asarray(grad, dtype=value.dtype), value.shape
        )
        if grads[slot] is None:
            grads[slot] = grad.copy()
        else:
            grads[slot] += grad

    def _build_bwd(
        self, op: _TapeOp
    ) -> Optional[Callable[[list, np.ndarray], None]]:
        """One backward kernel mirroring the eager closure's expressions."""
        if not self._slot_requires[op.out]:
            return None
        values = self._values
        acc = self._acc
        requires = self._slot_requires
        kind, meta = op.kind, op.meta
        ins = op.inputs
        a = ins[0] if ins else -1
        b = ins[1] if len(ins) > 1 else -1
        need_a = requires[a] if ins else False
        need_b = requires[b] if len(ins) > 1 else False
        if kind == "add":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g)
                if need_b:
                    acc(grads, b, g)
            return bwd
        if kind == "neg":
            return lambda grads, g: acc(grads, a, -g)
        if kind == "sub":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g)
                if need_b:
                    acc(grads, b, -g)
            return bwd
        if kind == "mul":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g * values[b])
                if need_b:
                    acc(grads, b, g * values[a])
            return bwd
        if kind == "div":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g / values[b])
                if need_b:
                    acc(grads, b, -g * values[a] / (values[b] ** 2))
            return bwd
        if kind == "pow":
            exponent = meta["exponent"]
            return lambda grads, g: acc(
                grads, a, g * exponent * values[a] ** (exponent - 1)
            )
        if kind == "matmul":
            def bwd(grads, g):
                if need_a:
                    acc(grads, a, g @ values[b].T)
                if need_b:
                    acc(grads, b, values[a].T @ g)
            return bwd
        if kind == "transpose":
            return lambda grads, g: acc(grads, a, g.T)
        if kind == "reshape":
            original = self._slot_shapes[a]
            return lambda grads, g: acc(grads, a, g.reshape(original))
        if kind == "getitem":
            index = meta["index"]
            shape = self._slot_shapes[a]
            dtype = self.dtype

            def bwd(grads, g):
                full = np.zeros(shape, dtype=dtype)
                _index_add(full, index, g)
                acc(grads, a, full)
            return bwd
        if kind == "sum":
            axis, keepdims = meta["axis"], meta["keepdims"]
            in_shape = self._slot_shapes[a]

            def bwd(grads, g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                acc(grads, a, np.broadcast_to(g, in_shape))
            return bwd
        out = op.out
        if kind == "tanh":
            return lambda grads, g: acc(
                grads, a, g * (1.0 - values[out] ** 2)
            )
        if kind == "relu":
            return lambda grads, g: acc(grads, a, g * (values[a] > 0.0))
        if kind == "sigmoid":
            def bwd(grads, g):
                s = values[out]
                acc(grads, a, g * s * (1.0 - s))
            return bwd
        if kind == "exp":
            return lambda grads, g: acc(grads, a, g * values[out])
        if kind == "log":
            return lambda grads, g: acc(grads, a, g / values[a])
        if kind == "sqrt":
            return lambda grads, g: acc(
                grads, a, g * 0.5 / np.maximum(values[out], 1e-300)
            )
        if kind == "abs":
            return lambda grads, g: acc(grads, a, g * np.sign(values[a]))
        if kind == "clip_min":
            minimum = meta["minimum"]
            return lambda grads, g: acc(
                grads, a, g * (values[a] > minimum)
            )
        if kind == "spmm":
            csr = meta["csr"]
            return lambda grads, g: acc(grads, a, csr.T @ g)
        if kind in ("concat", "stack"):
            axis = meta["axis"]
            slots = ins
            slot_requires = [requires[s] for s in slots]
            if kind == "concat":
                sizes = [self._slot_shapes[s][axis] for s in slots]
                offsets = np.cumsum([0] + sizes)

                def bwd(grads, g):
                    for s, needed, start, stop in zip(
                        slots, slot_requires, offsets[:-1], offsets[1:]
                    ):
                        if needed:
                            index = [slice(None)] * g.ndim
                            index[axis] = slice(start, stop)
                            acc(grads, s, g[tuple(index)])
                return bwd

            def bwd(grads, g):
                slabs = np.moveaxis(g, axis, 0)
                for s, needed, slab in zip(slots, slot_requires, slabs):
                    if needed:
                        acc(grads, s, slab)
            return bwd
        if kind == "threshold_mask":
            threshold = meta["threshold"]
            return lambda grads, g: acc(
                grads, a, g * (values[a] < threshold)
            )
        if kind == "softmax":
            axis = meta["axis"]

            def bwd(grads, g):
                soft = values[out]
                inner = (g * soft).sum(axis=axis, keepdims=True)
                acc(grads, a, soft * (g - inner))
            return bwd
        if kind == "log_softmax":
            axis = meta["axis"]

            def bwd(grads, g):
                probs = np.exp(values[out])
                inner = g.sum(axis=axis, keepdims=True)
                acc(grads, a, g - probs * inner)
            return bwd
        if kind == "gcn_layer":
            csr, activation = meta["csr"], meta["activation"]
            scratch = meta.setdefault("scratch", [None])
            h, w = ins

            def bwd(grads, g):
                # The three eager adjoints, applied in eager's order on
                # single-consumer intermediates (see tests/test_tape.py
                # for the gradcheck + bitwise gates).
                if activation == "tanh":
                    g2 = g * (1.0 - values[out] ** 2)
                else:
                    g2 = g * (scratch[0] > 0.0)
                gz = csr.T @ g2
                if need_a:
                    acc(grads, h, gz @ values[w].T)
                if need_b:
                    acc(grads, w, values[h].T @ gz)
            return bwd
        raise AssertionError(f"no backward kernel for op kind {kind!r}")

    # -- execution ------------------------------------------------------
    def _load_params(self) -> None:
        for slot, param in self._params.items():
            data = param.data
            if data.dtype != self.dtype:
                data = data.astype(self.dtype)
            self._values[slot] = data

    def replay(self) -> Tuple[List[Tensor], Dict[str, float]]:
        """Execute the tape forward; return output tensors + watch values.

        The returned tensors read the replayed values and carry a
        backward hook that runs the tape's reverse pass, accumulating
        into the captured parameters' ``.grad`` buffers — so the
        training loop's ``total.backward()`` / ``optimizer.step()``
        sequence works unchanged.  Outputs stay valid until the next
        ``replay()`` call (value buffers are reused).
        """
        from ..observability import get_tracer

        observed = bool(dispatch.observers())
        started = time.perf_counter()
        kernel_time = 0.0
        with get_tracer().span("tape.replay", ops=len(self._forward)):
            self._load_params()
            if not observed:
                for op in self._forward:
                    op.fwd()
            else:
                for op in self._forward:
                    kernel_time += dispatch.kernel(
                        op.kind, "forward", op.flops, op.shape, op.fwd
                    )
        watched: Dict[str, float] = {}
        for label, slot in self._watches:
            watched[label] = watched.get(label, 0.0) + float(
                self._values[slot]
            )
        outputs = self._wrap_outputs()
        if observed:
            dispatch.overhead("tape.overhead", "forward",
                              time.perf_counter() - started - kernel_time)
        return outputs, watched

    def _run_backward(self, seeds: List[Optional[np.ndarray]]) -> None:
        observed = bool(dispatch.observers())
        started = time.perf_counter()
        grads: List[Optional[np.ndarray]] = [None] * len(self._slot_kinds)
        for slot, seed in zip(self._output_slots, seeds):
            if seed is not None:
                self._acc(grads, slot, seed)
        if not observed:
            for op in self._backward_ops:
                grad = grads[op.out]
                if grad is not None:
                    op.bwd(grads, grad)
            return
        kernel_time = 0.0
        for op in self._backward_ops:
            grad = grads[op.out]
            if grad is not None:
                kernel_time += dispatch.kernel(
                    op.kind, "backward", op.bwd_flops, op.shape,
                    op.bwd, grads, grad,
                )
        dispatch.overhead("tape.overhead", "backward",
                          time.perf_counter() - started - kernel_time)

    def _wrap_outputs(self) -> List[Tensor]:
        tape = self
        seeds: List[Optional[np.ndarray]] = [None] * len(
            self._output_slots
        )
        # All outputs hang off one hidden root; each output's backward
        # stashes its fully-accumulated gradient, and the root (which
        # the topological order fires last) runs the tape reverse pass.
        root = Tensor(0.0)
        root.requires_grad = True

        def root_backward(_grad: np.ndarray) -> None:
            tape._run_backward(seeds)

        root._backward = root_backward
        outputs: List[Tensor] = []
        for position, slot in enumerate(self._output_slots):
            tensor = Tensor(self._values[slot])
            # The constructor coerces to float64; outputs must expose the
            # replayed array itself (float32 under the fast policy).
            tensor.data = self._values[slot]
            if self._slot_requires[slot]:
                tensor.requires_grad = True
                tensor._parents = (root,)
                tensor._backward = self._make_stash(position, seeds, root)
            outputs.append(tensor)
        return outputs

    @staticmethod
    def _make_stash(position: int, seeds: list,
                    root: Tensor) -> Callable[[np.ndarray], None]:
        def stash(grad: np.ndarray) -> None:
            seeds[position] = grad
            root._accumulate(np.zeros((), dtype=root.data.dtype))

        return stash

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._forward)

    def op_kinds(self) -> List[str]:
        """Forward-order op kinds (fusion-pass inspection)."""
        return [op.kind for op in self._forward]

    def total_flops(self) -> int:
        """Static forward+backward FLOP estimate for one replay."""
        return sum(
            op.flops for op in self._forward
        ) + sum(op.bwd_flops for op in self._backward_ops)
