"""Unit tests for the circuit breaker state machine.

Every test drives the breaker with an injectable fake clock, so the
whole closed → open → half-open → closed lifecycle — including the
exponential reset backoff — runs without a single ``sleep``.
"""

import threading

import pytest

from repro.observability import MetricsRegistry
from repro.resilience import CircuitBreaker

BREAKER_STATES = ("closed", "open", "half_open")


class FakeClock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_breaker(clock, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("reset_timeout_s", 1.0)
    kwargs.setdefault("registry", MetricsRegistry())
    return CircuitBreaker(name="test", clock=clock, **kwargs)


def trip(breaker, clock=None, failures=3):
    for _ in range(failures):
        breaker.record_failure(RuntimeError("shard down"))


class TestClosedState:
    def test_starts_closed_and_allows(self):
        breaker = make_breaker(FakeClock())
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failures_below_threshold_stay_closed(self):
        breaker = make_breaker(FakeClock())
        breaker.record_failure(RuntimeError("x"))
        breaker.record_failure(RuntimeError("x"))
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_success_resets_consecutive_count(self):
        # fail, fail, success, fail, fail: never 3 *consecutive*.
        breaker = make_breaker(FakeClock())
        breaker.record_failure(RuntimeError("x"))
        breaker.record_failure(RuntimeError("x"))
        breaker.record_success()
        breaker.record_failure(RuntimeError("x"))
        breaker.record_failure(RuntimeError("x"))
        assert breaker.state == "closed"

    def test_threshold_consecutive_failures_trip(self):
        breaker = make_breaker(FakeClock())
        trip(breaker)
        assert breaker.state == "open"


class TestOpenState:
    def test_open_rejects_before_timeout(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        trip(breaker)
        clock.advance(0.99)
        assert not breaker.allow()
        assert breaker.state == "open"

    def test_open_allows_single_probe_after_timeout(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.state == "half_open"
        # A concurrent caller during the probe is rejected: one request
        # per backoff window hits the sick shard, never a herd.
        assert not breaker.allow()

    def test_straggler_failure_while_open_is_ignored(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        trip(breaker)
        snapshot = breaker.snapshot()
        breaker.record_failure(RuntimeError("late straggler"))
        after = breaker.snapshot()
        assert after["trips"] == snapshot["trips"]
        assert after["state"] == "open"


class TestHalfOpenState:
    def test_probe_success_closes_and_resets_backoff(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.snapshot()["trips"] == 0
        # The next trip starts from the base timeout again.
        trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()

    def test_probe_failure_reopens_with_longer_timeout(self):
        clock = FakeClock()
        breaker = make_breaker(clock, backoff_factor=2.0)
        trip(breaker)                    # trip 1: 1.0 s window
        clock.advance(1.0)
        assert breaker.allow()           # probe
        breaker.record_failure(RuntimeError("still down"))
        assert breaker.state == "open"   # trip 2: 2.0 s window
        clock.advance(1.99)
        assert not breaker.allow()
        clock.advance(0.01)
        assert breaker.allow()           # second probe
        breaker.record_failure(RuntimeError("still down"))
        clock.advance(3.99)              # trip 3: 4.0 s window
        assert not breaker.allow()
        clock.advance(0.01)
        assert breaker.allow()

    def test_backoff_capped_at_max(self):
        clock = FakeClock()
        breaker = make_breaker(
            clock, backoff_factor=10.0, max_reset_timeout_s=5.0
        )
        trip(breaker)
        for _ in range(4):  # uncapped this would reach 1000 s
            clock.advance(5.0)
            assert breaker.allow()
            breaker.record_failure(RuntimeError("still down"))
        clock.advance(5.0)
        assert breaker.allow()


class TestObservability:
    def test_snapshot_fields(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        trip(breaker)
        snapshot = breaker.snapshot()
        assert snapshot["name"] == "test"
        assert snapshot["state"] == "open"
        assert snapshot["state"] in BREAKER_STATES
        assert snapshot["consecutive_failures"] == 3
        assert snapshot["trips"] == 1
        assert snapshot["opened_total"] == 1
        assert snapshot["next_probe_in_s"] == pytest.approx(1.0)
        assert "shard down" in snapshot["last_error"]

    def test_metrics_counters(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        breaker = make_breaker(clock, registry=registry)
        trip(breaker)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert registry.counter("resilience.breaker.opened").value == 1
        assert registry.counter("resilience.breaker.rejected").value == 1
        assert registry.counter("resilience.breaker.probes").value == 1
        assert registry.counter("resilience.breaker.closed").value == 1

    def test_thread_safety_under_concurrent_hammering(self):
        clock = FakeClock()
        breaker = make_breaker(clock, failure_threshold=1)

        def hammer():
            for _ in range(200):
                if breaker.allow():
                    breaker.record_failure(RuntimeError("x"))
                clock.advance(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert breaker.state in BREAKER_STATES


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout_s"):
            CircuitBreaker(reset_timeout_s=0.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            CircuitBreaker(backoff_factor=0.5)
        with pytest.raises(ValueError, match="max_reset_timeout_s"):
            CircuitBreaker(reset_timeout_s=2.0, max_reset_timeout_s=1.0)
