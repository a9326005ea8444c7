"""The one seam through which autograd ops are observed.

Every autograd primitive — the op methods on
:class:`~repro.autograd.Tensor` and the free functions in
:mod:`repro.autograd.ops` that build graph nodes — is declared with
:func:`primitive` where it is defined, in the manner of HIPS autograd's
``@primitive``.  Nothing is patched at runtime: a reference bound before
an observer arrives (``OPS = {"prop": spmm}``) is the same function
object and is observed like any other call.

Observers (:class:`~repro.observability.OpProfiler`,
:class:`~repro.autograd.TapeRecorder`) attach to a per-thread stack and
see only the ops of the thread they attached on.  With the stack empty a
primitive costs one attribute check on top of its own body.  Primitives
do not call one another (composites such as ``Tensor.mean`` are plain
functions over primitives), so the durations observers are given never
overlap.

Compiled tape execution bypasses the eager primitives, so the replay
loop reports each kernel through :func:`kernel` and its own bookkeeping
time through :func:`overhead`.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

__all__ = [
    "Observer",
    "primitive",
    "observers",
    "attach",
    "detach",
    "kernel",
    "overhead",
]


class Observer:
    """Receiver of op notifications; override the ones you need."""

    def op(self, kind: str, args: tuple, kwargs: dict, out: Any,
           started: float, elapsed: float) -> None:
        """An eager primitive returned ``out`` after ``elapsed`` seconds."""

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


def primitive(kind: str) -> Callable[[Callable], Callable]:
    """Decorator declaring a function as the autograd primitive ``kind``."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def dispatched(*args, **kwargs):
            stack = _state.observers
            if not stack:
                return fn(*args, **kwargs)
            started = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
            for observer in stack:
                observer.op(kind, args, kwargs, out, started, elapsed)
            return out

        return dispatched

    return decorate


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
