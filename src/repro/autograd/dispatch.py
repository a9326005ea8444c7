"""The observer stack through which autograd ops are seen.

Every eager graph node is built by one function,
:func:`repro.autograd.tensor.apply` — the public ``Tensor`` methods and
the graph-building free functions in :mod:`repro.autograd.ops` all call
it with an op kind from the op table (:mod:`repro.autograd.optable`).
``apply`` notifies the calling thread's observers of each op with its
kind, tensor operands, constant meta, result and timing.  Nothing is
patched at runtime: a reference bound before an observer arrives
(``handlers = {"prop": spmm}``) is the same function object and is
observed like any other call.

Observers (:class:`~repro.observability.OpProfiler`,
:class:`~repro.autograd.TapeRecorder`) attach to a per-thread stack and
see only the ops of the thread they attached on.  With the stack empty
an op costs one attribute check on top of its own work.  ``apply`` never
calls itself (composites such as ``Tensor.mean`` are plain functions
over ops), so the durations observers are given never overlap.

Compiled tape execution bypasses ``apply``, so the replay loop reports
each kernel through :func:`kernel` and its own bookkeeping time through
:func:`overhead`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

__all__ = [
    "Observer",
    "observers",
    "attach",
    "detach",
    "kernel",
    "overhead",
]


class Observer:
    """Receiver of op notifications; override the ones you need."""

    def op(self, kind: str, inputs: tuple, meta: dict, out: Any,
           started: float, elapsed: float) -> None:
        """An eager op returned ``out`` after ``elapsed`` seconds."""

    def kernel(self, kind: str, direction: str, started: float,
               elapsed: float, flops: int, shape: tuple) -> None:
        """A compiled tape kernel ran (``direction``: forward/backward)."""

    def overhead(self, kind: str, direction: str, elapsed: float) -> None:
        """Tape bookkeeping took ``elapsed`` seconds outside the ops and
        kernels it reported."""


class _Stack(threading.local):
    observers: tuple = ()


_state = _Stack()


def observers() -> tuple:
    """The observers attached on the calling thread, oldest first."""
    return _state.observers


def attach(observer: Observer) -> None:
    _state.observers += (observer,)


def detach(observer: Observer) -> None:
    _state.observers = tuple(
        other for other in _state.observers if other is not observer
    )


def kernel(kind: str, direction: str, flops: int, shape: tuple,
           run: Callable, *args: Any) -> float:
    """Run one compiled kernel, report it, and return its duration."""
    started = time.perf_counter()
    run(*args)
    elapsed = time.perf_counter() - started
    for observer in _state.observers:
        observer.kernel(kind, direction, started, elapsed, flops, shape)
    return elapsed


def overhead(kind: str, direction: str, elapsed: float) -> None:
    for observer in _state.observers:
        observer.overhead(kind, direction, elapsed)
