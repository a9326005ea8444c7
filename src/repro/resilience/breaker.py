"""Circuit breakers: stop hammering a failing dependency, probe it back.

A :class:`CircuitBreaker` guards one failure domain (in this repo: one
shard scorer in :class:`~repro.serving.sharded.ShardedIndex`, the index
``QueryEngine.from_artifact(artifact, shards=N)`` builds for ``N > 1``)
with the classic three-state machine:

* **closed** — healthy; every call is allowed.  ``failure_threshold``
  *consecutive* failures trip the breaker.
* **open** — failing; calls are rejected without touching the
  dependency.  After a reset timeout (exponential backoff:
  ``reset_timeout_s * backoff_factor**(trips - 1)``, capped at
  ``max_reset_timeout_s``) the breaker lets exactly **one** probe
  through.
* **half-open** — one probe in flight.  Success closes the breaker and
  resets the backoff; failure re-opens it with a longer timeout.
  Concurrent callers during the probe are rejected, so a sick shard
  sees one request per backoff window, not a thundering herd.

The clock is injectable (``clock=time.monotonic`` by default) so the
state machine is unit-testable without sleeping.  All transitions emit
``resilience.breaker.*`` metrics/events named after the breaker.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from ..observability import MetricsRegistry, get_registry

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Three-state breaker with exponential-backoff half-open probes.

    Thread-safe.  Callers ask :meth:`allow` before doing the guarded
    work and report the outcome with :meth:`record_success` /
    :meth:`record_failure`; the breaker never runs the work itself, so
    it composes with any execution substrate (inline, process pool).
    """

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 3,
        reset_timeout_s: float = 0.5,
        backoff_factor: float = 2.0,
        max_reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ValueError(
                f"reset_timeout_s must be positive, got {reset_timeout_s}"
            )
        if backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {backoff_factor}"
            )
        if max_reset_timeout_s < reset_timeout_s:
            raise ValueError(
                "max_reset_timeout_s must be >= reset_timeout_s, got "
                f"{max_reset_timeout_s} < {reset_timeout_s}"
            )
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self.backoff_factor = float(backoff_factor)
        self.max_reset_timeout_s = float(max_reset_timeout_s)
        self.registry = registry
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._trips = 0  # consecutive open periods without a success
        self._opened_total = 0
        self._open_until = 0.0
        self._last_error: Optional[str] = None

    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None else get_registry()

    # -- transitions (lock held) ---------------------------------------
    def _current_timeout(self) -> float:
        backoff = self.reset_timeout_s * (
            self.backoff_factor ** max(0, self._trips - 1)
        )
        return min(backoff, self.max_reset_timeout_s)

    def _open_locked(self) -> None:
        self._trips += 1
        self._opened_total += 1
        self._state = "open"
        self._open_until = self._clock() + self._current_timeout()
        registry = self._registry()
        registry.increment("resilience.breaker.opened")
        registry.emit(
            "resilience.breaker.opened",
            {
                "breaker": self.name,
                "trips": self._trips,
                "timeout_s": self._current_timeout(),
                "error": self._last_error,
            },
        )

    # -- caller API ----------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the guarded call proceed right now?

        ``closed`` → yes.  ``open`` → yes for exactly one caller once
        the reset timeout has elapsed (the breaker moves to
        ``half_open``), no for everyone else.  ``half_open`` → no (a
        probe is already in flight).
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open" and self._clock() >= self._open_until:
                self._state = "half_open"
                self._registry().increment("resilience.breaker.probes")
                return True
            self._registry().increment("resilience.breaker.rejected")
            return False

    def record_success(self) -> None:
        """The guarded call succeeded; close the breaker, reset backoff."""
        with self._lock:
            reopened = self._state != "closed"
            self._state = "closed"
            self._consecutive_failures = 0
            self._trips = 0
            self._last_error = None
        if reopened:
            registry = self._registry()
            registry.increment("resilience.breaker.closed")
            registry.emit(
                "resilience.breaker.closed", {"breaker": self.name}
            )

    def record_failure(self, error: Optional[BaseException] = None) -> None:
        """The guarded call failed; trip or re-open past the threshold."""
        with self._lock:
            self._last_error = None if error is None else str(error)
            if self._state == "half_open":
                # The probe failed: straight back to open, longer wait.
                self._open_locked()
                return
            if self._state == "open":
                # A straggler from before the trip; nothing to update.
                return
            self._consecutive_failures += 1
            self._registry().increment("resilience.breaker.failures")
            if self._consecutive_failures >= self.failure_threshold:
                self._open_locked()

    def snapshot(self) -> Dict[str, Any]:
        """State for health endpoints: never blocks on guarded work."""
        with self._lock:
            probe_in = (
                max(0.0, self._open_until - self._clock())
                if self._state == "open"
                else 0.0
            )
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
                "opened_total": self._opened_total,
                "next_probe_in_s": probe_in,
                "last_error": self._last_error,
            }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(name={self.name!r}, state={self.state!r}, "
            f"threshold={self.failure_threshold})"
        )
