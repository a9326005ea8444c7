"""Per-op autograd profiler: time + FLOP accounting for every tensor op.

The GAlign cost profile is dominated by the multi-order GCN
forward/backward (Eq 8-10); this module measures it at the operation
level.  Inside a ``with profiler.enabled():`` block every
:class:`~repro.autograd.Tensor` op — the arithmetic/matmul/reduction
methods plus the free functions in :mod:`repro.autograd.ops` (``spmm``,
``softmax``, ...) — is observed so that:

* the forward call is timed and tagged with op name, output shape, and
  the forward FLOPs its op-table entry (:mod:`repro.autograd.optable`)
  estimates from static shapes — the same numbers the tape reports for
  its compiled kernels;
* the node's backward closure is wrapped too, so the reverse pass is
  attributed to the op that created it, with the entry's backward FLOPs;
* when a :class:`~repro.observability.trace.Tracer` is active, each call
  additionally lands in the trace as an ``op.<name>`` event, nested
  under whatever span (epoch, refinement iteration) was open.

Everything aggregates into a per-op table — calls, time, FLOPs,
effective GFLOP/s — via :func:`format_op_table`.

Zero cost when disabled
-----------------------
The profiler is an observer of the op-dispatch seam
(:mod:`repro.autograd.dispatch`): every eager op builds its node through
:func:`repro.autograd.tensor.apply`, which notifies the thread's
observers, and nothing is patched at runtime.  Outside
``profiler.enabled()`` no observer is attached and an op pays one
attribute check (the bound is asserted, together with the bounded
profiled-on overhead, in ``benchmarks/test_profiler_overhead.py``).

A profiler sees the ops of the thread that enabled it.  Profilers nest:
each one attached records every op.  Compiled tape execution reports
through the same seam — each replayed kernel under its op kind
(``gcn_layer`` fused kernels included), plus ``tape.capture`` and
``tape.overhead`` rows for the tape's own bookkeeping outside its ops
and kernels.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..autograd import dispatch
from ..autograd.optable import OPS
from .trace import Tracer, get_tracer

__all__ = ["OpProfiler", "OpStat", "format_op_table"]


class OpStat:
    """Aggregated timings for one (op, direction) pair."""

    __slots__ = ("op", "direction", "calls", "total_time", "flops")

    def __init__(self, op: str, direction: str) -> None:
        self.op = op
        self.direction = direction
        self.calls = 0
        self.total_time = 0.0
        self.flops = 0

    @property
    def gflops_per_s(self) -> float:
        return self.flops / self.total_time / 1e9 if self.total_time else 0.0

    def as_row(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "direction": self.direction,
            "calls": self.calls,
            "total_time": self.total_time,
            "flops": self.flops,
            "gflops_per_s": self.gflops_per_s,
        }


class OpProfiler(dispatch.Observer):
    """Aggregates per-op forward/backward timings and FLOPs.

    Parameters
    ----------
    tracer:
        Destination for per-call ``op.<name>`` trace events; defaults to
        the process tracer at call time (a disabled tracer drops them).
    trace_ops:
        Set False to keep op calls out of the trace (aggregate table
        only) — useful when a long run would make the trace file huge.
    """

    def __init__(
        self, tracer: Optional[Tracer] = None, trace_ops: bool = True
    ) -> None:
        self.tracer = tracer
        self.trace_ops = bool(trace_ops)
        self._stats: Dict[Tuple[str, str], OpStat] = {}
        self._lock = threading.Lock()
        self._active = False

    # -- enable / disable ----------------------------------------------
    def enabled(self) -> "OpProfiler":
        """``with profiler.enabled(): ...`` observes this thread's ops."""
        return self

    def __enter__(self) -> "OpProfiler":
        self._active = True
        dispatch.attach(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self._active = False
        dispatch.detach(self)

    # -- observer notifications -----------------------------------------
    def op(self, kind: str, inputs: tuple, meta: dict, out: Any,
           started: float, elapsed: float) -> None:
        shape = out.shape
        flops, backward_flops = OPS[kind].flops(
            [tensor.shape for tensor in inputs], shape, meta
        )
        self.kernel(kind, "forward", started, elapsed, flops, shape)
        if out._backward is not None:
            out._backward = self._wrap_backward(
                kind, out._backward, backward_flops, shape
            )

    def kernel(self, kind: str, direction: str, started: float,
               elapsed: float, flops: int, shape: tuple) -> None:
        self._record(kind, direction, elapsed, int(flops))
        if self.trace_ops:
            tracer = self.tracer if self.tracer is not None else get_tracer()
            suffix = "" if direction == "forward" else f".{direction}"
            tracer.add_event(f"op.{kind}{suffix}", started, elapsed,
                             shape=list(shape), flops=int(flops))

    def overhead(self, kind: str, direction: str, elapsed: float) -> None:
        self._record(kind, direction, elapsed, 0)

    # -- recording ------------------------------------------------------
    def _record(
        self, op: str, direction: str, elapsed: float, flops: int
    ) -> None:
        key = (op, direction)
        with self._lock:
            stat = self._stats.get(key)
            if stat is None:
                stat = self._stats[key] = OpStat(op, direction)
            stat.calls += 1
            stat.total_time += elapsed
            stat.flops += flops

    def _wrap_backward(
        self,
        op_name: str,
        backward: Callable,
        flops: int,
        shape: tuple,
    ) -> Callable:
        profiler = self

        def profiled_backward(grad):
            if not profiler._active:
                # backward() ran after the profiler context closed (the
                # tensor outlived it); stay out of the books.
                return backward(grad)
            started = time.perf_counter()
            try:
                return backward(grad)
            finally:
                profiler.kernel(op_name, "backward", started,
                                time.perf_counter() - started, flops, shape)

        return profiled_backward

    # -- results --------------------------------------------------------
    def stats(self) -> List[OpStat]:
        """All (op, direction) aggregates, busiest first."""
        with self._lock:
            return sorted(
                self._stats.values(), key=lambda s: -s.total_time
            )

    def total_time(self, direction: Optional[str] = None) -> float:
        """Summed time across ops (rows never overlap: ops do not nest,
        and tape rows exclude the kernels they surround)."""
        with self._lock:
            return sum(
                stat.total_time
                for stat in self._stats.values()
                if direction is None or stat.direction == direction
            )

    def total_flops(self) -> int:
        with self._lock:
            return sum(stat.flops for stat in self._stats.values())

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()


def format_op_table(
    profiler: OpProfiler, title: Optional[str] = None, limit: int = 0
) -> str:
    """Render the per-op aggregate table (busiest ops first)."""
    stats = profiler.stats()
    if limit:
        stats = stats[:limit]
    headers = ("op", "dir", "calls", "total(s)", "GFLOP", "GFLOP/s")
    rows = [
        (
            stat.op,
            stat.direction,
            str(stat.calls),
            f"{stat.total_time:.4f}",
            f"{stat.flops / 1e9:.3f}",
            f"{stat.gflops_per_s:.2f}",
        )
        for stat in stats
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
