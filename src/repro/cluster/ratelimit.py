"""Per-tenant token-bucket rate limiting for the cluster front door.

The single-node queue already round-robins between clients, but
fairness inside the queue cannot stop one tenant from *filling* it —
admission order is fair, admission volume is not.  The coordinator
therefore meters submissions per tenant before any shard sees them: a
classic token bucket (``rate`` tokens/second refill, ``burst``
capacity) per client ID, refilled lazily on access, rejecting with a
precise retry-after when empty.  A tenant that bursts past its bucket
gets 429s with honest hints; everyone else's traffic is untouched.

Tunables (see ``envutil.describe_env``): ``REPRO_CLUSTER_RATE``
(steady-state submissions/second per tenant) and
``REPRO_CLUSTER_BURST`` (bucket capacity).  The clock is injectable so
unit tests run without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.harness.envutil import knob

class TokenBucket:
    """One tenant's bucket: ``burst`` capacity, ``rate``/s refill."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive, got "
                             "rate=%g burst=%g" % (rate, burst))
        self.rate = rate
        self.burst = float(burst)
        self._clock = clock
        self.tokens = self.burst
        self._refilled_at = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)

    def try_acquire(self, cost: float = 1.0) -> Optional[float]:
        """Take ``cost`` tokens; None on success, else seconds until
        the bucket will hold ``cost`` tokens again (the retry-after)."""
        self._refill()
        if self.tokens >= cost:
            self.tokens -= cost
            return None
        return (cost - self.tokens) / self.rate


class RateLimiter:
    """Per-tenant buckets, created on first sight of each tenant."""

    def __init__(self, rate: Optional[float] = None,
                 burst: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = rate if rate is not None else knob("REPRO_CLUSTER_RATE")
        self.burst = burst if burst is not None \
            else knob("REPRO_CLUSTER_BURST")
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self.rejections = 0

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def try_acquire(self, tenant: str, cost: float = 1.0) -> Optional[float]:
        """None when ``tenant`` may submit now; else retry-after seconds."""
        retry_after = self.bucket(tenant).try_acquire(cost)
        if retry_after is not None:
            self.rejections += 1
        return retry_after

    @property
    def tenants(self) -> int:
        return len(self._buckets)
