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
  it records every ``apply(kind, inputs, **meta)`` call the capturing
  thread makes into an explicit tape: op kind, input/output value slots,
  and a snapshot of the constant meta (the CSR Laplacian, scalar
  coefficients, index arrays).
* :meth:`TapeRecorder.finalize` turns the recording into a :class:`Tape`:
  graph-level passes run — GCN-layer fusion, single-consumer buffer
  reuse — the dtype policy is applied, and each op's forward and
  backward kernels are built once from its op-table entry
  (:mod:`repro.autograd.optable`), so replay allocates no closures.
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
and backward, because eager and tape run the same op-table entry: its
forward in capture order (``out=`` only redirects the destination), and
its per-input VJPs in the order eager's depth-first topological sort
would fire them (recorded from the capture epoch's graph — reverse-
creation order is **not** the same and would reorder gradient
accumulation), with gradient accumulation going through eager's own
rule (:func:`~repro.autograd.tensor.accumulated`: unbroadcast, cast to
the slot dtype, adopt-then-add) slot by slot.  The fused ``gcn_layer``
entry composes the ``matmul``, ``spmm`` and activation entries in eager
order on single-consumer intermediates, so it keeps the contract too
(asserted, with gradcheck, in ``tests/test_tape.py``).  The Eq 7 entry
(``gram_residual_norm``) needs no pass at all: eager builds it too, so
both sides run one op.

Optimization passes
-------------------
* **Fusion** — the GCN layer pattern ``matmul → spmm → tanh|relu`` (Eq 1's
  ``σ(C H W)``) collapses into one ``gcn_layer`` op whose backward pulls
  the gradient through the activation and ``spmm`` once, eliminating the
  intermediate graph nodes.  It applies only when both intermediates
  are single-consumer and neither is a tape output.
* **Buffer reuse** — every ``out_capable`` op output of static shape gets
  a persistent ``out=`` buffer, so steady-state replay allocates almost
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
Capture covers one recorder context and the tape replays it as recorded,
so anything data-dependent must stay outside the context and run eagerly
on top of the replayed outputs.  Alg 1's loss has no such part: it is
static end to end (exact Eq 7 included), so
:class:`~repro.core.training_loop.CompiledLoss` captures all of it and
the trainer only reads floats off the result.  A tensor produced by an
op *outside* the capture window cannot join the tape (its history is
unknown) and raises at capture time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dispatch
from .optable import OPS, Op
from .tensor import Tensor, accumulated

__all__ = ["TapeRecorder", "Tape"]


_SLOT_PARAM = 0
_SLOT_CONST = 1
_SLOT_OP = 2

def _snapshot(value: Any) -> Any:
    """Freeze a meta value the caller may mutate after the op returns
    (index arrays and lists, also inside an index tuple)."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return list(value)
    if isinstance(value, tuple):
        return tuple(_snapshot(part) for part in value)
    return value


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


class TapeRecorder(dispatch.Observer):
    """Capture one eager epoch's op stream into a tape.

    Usage::

        recorder = TapeRecorder()
        with recorder:
            total, *diagnostics = compute_losses(0)   # eager, recorded
        tape = recorder.finalize(outputs=[total])
        ...
        (total,) = tape.replay()                      # later epochs
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

    def op(self, kind: str, inputs: tuple, meta: dict, out: Tensor,
           started: float, elapsed: float) -> None:
        self._op_time += elapsed
        input_slots = tuple(self._slot_for(tensor) for tensor in inputs)
        out_slot = self._new_slot(_SLOT_OP, out.data.shape,
                                  out.requires_grad)
        self._slot_by_id[id(out)] = out_slot
        self._op_index_by_out_id[id(out)] = len(self.ops)
        self._keepalive.append(out)
        self.ops.append(_TapeOp(
            kind, input_slots, out_slot,
            {name: _snapshot(value) for name, value in meta.items()},
        ))

    # -- slot bookkeeping ----------------------------------------------
    def _new_slot(self, kind: int, shape: tuple, requires: bool) -> int:
        slot = len(self.slot_kinds)
        self.slot_kinds.append(kind)
        self.slot_shapes.append(shape)
        self.slot_requires.append(requires)
        return slot

    def _slot_for(self, tensor: Tensor) -> int:
        slot = self._slot_by_id.get(id(tensor))
        if slot is not None:
            return slot
        if tensor.requires_grad and tensor._backward is not None:
            raise RuntimeError(
                "a tensor produced by an op outside the capture "
                "window flowed into the tape; capture the whole "
                "loss computation inside one recorder context"
            )
        self._keepalive.append(tensor)
        if tensor.requires_grad:
            slot = self._new_slot(_SLOT_PARAM, tensor.data.shape, True)
            self.slot_params[slot] = tensor
        else:
            slot = self._new_slot(_SLOT_CONST, tensor.data.shape, False)
            self.slot_consts[slot] = tensor.data
        self._slot_by_id[id(tensor)] = slot
        return slot

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
            ``outputs[0]``.  :class:`~repro.core.training_loop.CompiledLoss`
            passes the capture epoch's *final* eager loss, so the tape
            replays its reverse pass in exactly the order eager used.
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
            entry = OPS[op.kind]
            op.shape = self._slot_shapes[op.out]
            op.flops, op.bwd_flops = entry.flops(
                [self._slot_shapes[s] for s in op.inputs], op.shape, op.meta
            )
            op.fwd = self._forward_kernel(op, entry)
            op.bwd = self._backward_kernel(op, entry)

    # -- graph passes ---------------------------------------------------
    def _consumer_counts(self, ops: List[_TapeOp]) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for op in ops:
            for slot in op.inputs:
                counts[slot] = counts.get(slot, 0) + 1
        for slot in self._output_slots:
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
            if OPS[op.kind].view:
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
            for ref in OPS[op.kind].reads:
                if ref == "out":
                    backward_needs.add(op.out)
                elif ref < len(op.inputs):
                    backward_needs.add(op.inputs[ref])
        protected = set(self._output_slots)
        protected.update(backward_needs)
        protected.update(aliased)
        for op in ops:
            entry = OPS[op.kind]
            if not entry.out_capable or op.out in view_out:
                continue
            shape = self._slot_shapes[op.out]
            if entry.inplace:
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
    def _forward_kernel(self, op: _TapeOp, entry: Op) -> Callable[[], None]:
        """One zero-argument forward kernel: the entry's forward on the
        input slots, into the op's planned buffer (``out=`` redirects
        the destination, never the arithmetic)."""
        values, slots, out, meta = self._values, op.inputs, op.out, op.meta
        forward = entry.forward
        source = self._inplace_from.get(out)
        if source is not None:
            def fwd():
                values[out] = forward(
                    [values[s] for s in slots], meta, values[source]
                )
            return fwd
        buffer = self._out_buffer.get(out)

        def fwd():
            values[out] = forward([values[s] for s in slots], meta, buffer)
        return fwd

    def _acc(self, grads: list, slot: int, grad: np.ndarray) -> None:
        """Accumulate into a tape slot as ``Tensor._accumulate`` would:
        a parameter as a leaf, an op output as a graph node."""
        kind = self._slot_kinds[slot]
        if kind == _SLOT_PARAM:
            self._params[slot]._accumulate(grad)
            return
        if kind == _SLOT_CONST:
            return
        grads[slot] = accumulated(
            grads[slot], grad, self._values[slot], adopt=True
        )

    def _backward_kernel(
        self, op: _TapeOp, entry: Op
    ) -> Optional[Callable[[list, np.ndarray], None]]:
        """The entry's VJPs for the grad-requiring inputs, in operand
        order — the order eager's backward accumulates them."""
        if not self._slot_requires[op.out]:
            return None
        values, slots, out, meta = self._values, op.inputs, op.out, op.meta
        acc, pullback = self._acc, entry.pullback
        needed = [
            (slot, entry.vjps[position])
            for position, slot in enumerate(slots)
            if self._slot_requires[slot]
        ]

        def bwd(grads, g):
            ins = [values[s] for s in slots]
            result = values[out]
            if pullback is not None:
                g = pullback(g, ins, result, meta)
            for slot, vjp in needed:
                acc(grads, slot, vjp(g, ins, result, meta))
        return bwd

    # -- execution ------------------------------------------------------
    def _load_params(self) -> None:
        for slot, param in self._params.items():
            data = param.data
            if data.dtype != self.dtype:
                data = data.astype(self.dtype)
            self._values[slot] = data

    def replay(self) -> List[Tensor]:
        """Execute the tape forward and return its output tensors.

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
        outputs = self._wrap_outputs()
        if observed:
            dispatch.overhead("tape.overhead", "forward",
                              time.perf_counter() - started - kernel_time)
        return outputs

    def _run_backward(self, seeds: List[Optional[np.ndarray]]) -> None:
        observed = bool(dispatch.observers())
        started = time.perf_counter()
        grads: List[Optional[np.ndarray]] = [None] * len(self._slot_kinds)
        for slot, seed in zip(self._output_slots, seeds):
            if seed is not None:
                self._acc(grads, slot, seed)
        # Each slot's gradient is dropped once its op has used it.
        if not observed:
            for op in self._backward_ops:
                grad, grads[op.out] = grads[op.out], None
                if grad is not None:
                    op.bwd(grads, grad)
            return
        kernel_time = 0.0
        for op in self._backward_ops:
            grad, grads[op.out] = grads[op.out], None
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
