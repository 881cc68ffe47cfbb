"""Per-shard circuit breaker: closed / open / half-open with EWMA
failure tracking.

The coordinator wraps every upstream call to a shard in that shard's
breaker so one sick worker — hung, OOM-killed, mid-crash — cannot stall
the whole fleet behind connect timeouts:

* **closed** — requests flow; every outcome folds into an
  exponentially weighted failure rate.  When the rate crosses the trip
  threshold (after a minimum sample count, so one blip on a cold
  breaker cannot trip it), the breaker *opens*.
* **open** — requests are refused instantly (the coordinator routes
  around the shard or fast-fails) until ``reset_timeout_s`` elapses,
  then the breaker moves to *half-open*.
* **half-open** — a bounded number of probe requests are admitted.
  ``required_successes`` consecutive probe successes re-close the
  breaker (state fully reset); any probe failure re-opens it and
  re-arms the timer.

EWMA rather than a consecutive-failure counter: a shard failing 60% of
requests under load should trip even though successes are interleaved,
and one success must not reset the evidence.  The clock is injectable
so the state machine unit-tests run without sleeping.

Tunables (see ``envutil.describe_env``): ``REPRO_BREAKER_THRESHOLD``
(EWMA failure rate that trips an open) and ``REPRO_BREAKER_RESET``
(seconds an open breaker waits before probing).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.harness.envutil import knob

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: EWMA smoothing factor: one failure moves the rate by this fraction.
DEFAULT_ALPHA = 0.3
#: Outcomes required before the EWMA is trusted enough to trip.
DEFAULT_MIN_SAMPLES = 3
#: Probes admitted concurrently while half-open.
DEFAULT_MAX_PROBES = 1
#: Consecutive half-open successes required to re-close.
DEFAULT_REQUIRED_SUCCESSES = 1


class CircuitBreaker:
    """State machine guarding one upstream (a shard, in the cluster)."""

    def __init__(self,
                 threshold: Optional[float] = None,
                 reset_timeout_s: Optional[float] = None,
                 alpha: float = DEFAULT_ALPHA,
                 min_samples: int = DEFAULT_MIN_SAMPLES,
                 max_probes: int = DEFAULT_MAX_PROBES,
                 required_successes: int = DEFAULT_REQUIRED_SUCCESSES,
                 clock: Callable[[], float] = time.monotonic):
        self.threshold = (threshold if threshold is not None
                          else knob("REPRO_BREAKER_THRESHOLD"))
        self.reset_timeout_s = (reset_timeout_s if reset_timeout_s is not None
                                else knob("REPRO_BREAKER_RESET"))
        self.alpha = alpha
        self.min_samples = min_samples
        self.max_probes = max_probes
        self.required_successes = required_successes
        self._clock = clock

        self._state = CLOSED
        self.failure_rate = 0.0
        self.samples = 0
        self.trips = 0
        self.opened_at: Optional[float] = None
        self._probes_inflight = 0
        self._probe_successes = 0

    # --- state --------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, applying the open -> half-open timeout."""
        self._tick()
        return self._state

    def _tick(self) -> None:
        if (self._state == OPEN and self.opened_at is not None
                and self._clock() - self.opened_at >= self.reset_timeout_s):
            self._state = HALF_OPEN
            self._probes_inflight = 0
            self._probe_successes = 0

    def allow(self) -> bool:
        """May a request be sent now?

        Closed: always.  Open: never (until the reset timeout flips the
        state to half-open).  Half-open: only while fewer than
        ``max_probes`` probes are outstanding — the caller *must*
        report the probe's outcome via :meth:`record_success` /
        :meth:`record_failure` to release the slot.
        """
        self._tick()
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            return False
        if self._probes_inflight < self.max_probes:
            self._probes_inflight += 1
            return True
        return False

    # --- outcomes -----------------------------------------------------------

    def _observe(self, failed: bool) -> None:
        self.failure_rate += self.alpha * (float(failed) - self.failure_rate)
        self.samples += 1

    def record_success(self) -> None:
        self._tick()
        self._observe(False)
        if self._state == HALF_OPEN:
            self._probes_inflight = max(0, self._probes_inflight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.required_successes:
                self._close()

    def record_failure(self) -> None:
        self._tick()
        self._observe(True)
        if self._state == HALF_OPEN:
            self._open()
        elif (self._state == CLOSED and self.samples >= self.min_samples
                and self.failure_rate >= self.threshold):
            self._open()

    def trip(self) -> None:
        """Force the breaker open (e.g. a connection refused outright)."""
        self._tick()
        self._observe(True)
        if self._state != OPEN:
            self._open()

    def _open(self) -> None:
        self._state = OPEN
        self.opened_at = self._clock()
        self.trips += 1
        self._probes_inflight = 0
        self._probe_successes = 0

    def _close(self) -> None:
        self._state = CLOSED
        self.failure_rate = 0.0
        self.samples = 0
        self.opened_at = None
        self._probes_inflight = 0
        self._probe_successes = 0

    def __repr__(self) -> str:
        return ("CircuitBreaker(state=%s, failure_rate=%.3f, samples=%d, "
                "trips=%d)" % (self.state, self.failure_rate, self.samples,
                               self.trips))
