"""Circuit-breaker state-machine tests with an injected fake clock."""

import pytest

from repro.cluster.breaker import (
    CLOSED,
    DEFAULT_RESET_S,
    DEFAULT_THRESHOLD,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make(clock, **overrides):
    kwargs = dict(threshold=0.5, reset_timeout_s=2.0, alpha=0.3,
                  min_samples=3, clock=clock)
    kwargs.update(overrides)
    return CircuitBreaker(**kwargs)


class TestClosed:
    def test_starts_closed_and_allows(self, clock):
        breaker = make(clock)
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_single_failure_on_cold_breaker_does_not_trip(self, clock):
        """min_samples: one blip on a fresh breaker is not evidence."""
        breaker = make(clock)
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_sustained_failures_trip_open(self, clock):
        breaker = make(clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_interleaved_failures_still_trip(self, clock):
        """EWMA beats a consecutive-failure counter: a shard failing
        most requests trips even though successes are interleaved."""
        breaker = make(clock)
        for _ in range(4):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == OPEN

    def test_mostly_successes_never_trip(self, clock):
        breaker = make(clock)
        for _ in range(20):
            breaker.record_success()
            breaker.record_success()
            breaker.record_success()
            breaker.record_failure()
        assert breaker.state == CLOSED

    def test_trip_forces_open(self, clock):
        breaker = make(clock)
        breaker.trip()
        assert breaker.state == OPEN
        assert not breaker.allow()


class TestOpen:
    def test_refuses_until_reset_timeout(self, clock):
        breaker = make(clock)
        breaker.trip()
        clock.advance(1.99)
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_moves_to_half_open_after_timeout(self, clock):
        breaker = make(clock)
        breaker.trip()
        clock.advance(2.0)
        assert breaker.state == HALF_OPEN


class TestHalfOpen:
    def trip_and_wait(self, clock, **overrides):
        breaker = make(clock, **overrides)
        breaker.trip()
        clock.advance(2.0)
        assert breaker.state == HALF_OPEN
        return breaker

    def test_admits_bounded_probes(self, clock):
        breaker = self.trip_and_wait(clock, max_probes=1)
        assert breaker.allow()       # the probe slot
        assert not breaker.allow()   # no second concurrent probe

    def test_probe_success_closes_and_resets(self, clock):
        breaker = self.trip_and_wait(clock)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failure_rate == 0.0
        assert breaker.samples == 0
        assert breaker.allow()

    def test_probe_failure_reopens_and_rearms_timer(self, clock):
        breaker = self.trip_and_wait(clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        clock.advance(1.0)
        assert breaker.state == OPEN     # timer restarted at reopen
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN

    def test_required_successes_gt_one(self, clock):
        breaker = self.trip_and_wait(clock, max_probes=2,
                                     required_successes=2)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN   # one down, one to go
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_full_cycle_closed_open_half_open_closed(self, clock):
        """The canonical recovery arc, end to end."""
        breaker = make(clock)
        for _ in range(5):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(2.5)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()


class TestDefaults:
    def test_defaults_are_the_constants(self, clock):
        import inspect

        from repro.cluster.coordinator import ClusterCoordinator

        assert (DEFAULT_THRESHOLD, DEFAULT_RESET_S) == (0.5, 2.0)
        breaker = CircuitBreaker(clock=clock)
        assert breaker.threshold == DEFAULT_THRESHOLD
        assert breaker.reset_timeout_s == DEFAULT_RESET_S
        params = inspect.signature(ClusterCoordinator).parameters
        assert params["breaker_threshold"].default == DEFAULT_THRESHOLD
        assert params["breaker_reset_s"].default == DEFAULT_RESET_S
