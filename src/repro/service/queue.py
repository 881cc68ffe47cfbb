"""Bounded, client-fair admission queue for the simulation service.

Overload is made explicit: :meth:`BoundedJobQueue.put` on a full queue
raises :class:`QueueFullError` with a ``retry_after_s`` hint from the
observed service rate (the server's ``429`` + ``Retry-After``).  Jobs
pop round-robin across the clients with queued work, so a bulk sweep
cannot starve another client's single job, and by priority (lower
first, FIFO within one) within a client.  Only the scheduler touches
it, on the event-loop thread, so it takes no locks.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.service.jobs import Job

#: Depth used when the caller does not specify one.
DEFAULT_MAX_DEPTH = 64

#: Retry-after floor/ceiling (seconds) so the hint is always sane.
MIN_RETRY_AFTER_S = 0.5
MAX_RETRY_AFTER_S = 60.0


class QueueFullError(Exception):
    """Admission refused: the queue is at capacity.

    ``retry_after_s`` estimates when capacity is likely to free up,
    based on the exponentially weighted mean job service time the
    scheduler reports back into the queue.
    """

    def __init__(self, depth: int, retry_after_s: float):
        super().__init__(
            "queue full (%d jobs queued); retry in %.1fs"
            % (depth, retry_after_s))
        self.depth = depth
        self.retry_after_s = retry_after_s


class BoundedJobQueue:
    """Priority queue with a depth bound and round-robin client fairness."""

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1, got %d" % max_depth)
        self.max_depth = max_depth
        #: Per-client heaps of (priority, seq, job); OrderedDict preserves
        #: arrival order of clients for the round-robin rotation.
        self._per_client: "OrderedDict[str, List[tuple]]" = OrderedDict()
        self._seq = itertools.count()
        self._depth = 0
        #: EWMA of job service latency, fed by the scheduler; drives the
        #: retry-after hint.
        self.mean_service_s = 1.0
        #: Concurrency the scheduler executes with (for retry-after).
        self.workers = 1
        self.rejected = 0

    def __len__(self) -> int:
        return self._depth

    @property
    def clients(self) -> List[str]:
        return list(self._per_client)

    def note_latency(self, latency_s: float, alpha: float = 0.3) -> None:
        """Scheduler feedback: fold one observed job latency into the
        EWMA behind the retry-after estimate."""
        self.mean_service_s += alpha * (latency_s - self.mean_service_s)

    def suggest_retry_after(self) -> float:
        """Seconds until a queue slot plausibly frees: the time to drain
        the current backlog at the observed service rate."""
        per_slot = self.mean_service_s * max(1, self._depth)
        estimate = per_slot / max(1, self.workers)
        return min(MAX_RETRY_AFTER_S, max(MIN_RETRY_AFTER_S, estimate))

    def put(self, job: Job) -> None:
        """Admit ``job`` or raise :class:`QueueFullError`."""
        if self._depth >= self.max_depth:
            self.rejected += 1
            raise QueueFullError(self._depth, self.suggest_retry_after())
        heap = self._per_client.setdefault(job.client, [])
        heapq.heappush(heap, (job.priority, next(self._seq), job))
        self._depth += 1

    def pop(self) -> Optional[Job]:
        """Next job under round-robin fairness, or None when empty.

        The serving client moves to the back of the rotation, so with
        clients A (many jobs) and B (one job), B is served second, not
        after all of A.
        """
        if not self._per_client:
            return None
        client, heap = next(iter(self._per_client.items()))
        _, _, job = heapq.heappop(heap)
        self._per_client.pop(client)
        if heap:
            self._per_client[client] = heap  # re-append: back of rotation
        self._depth -= 1
        return job

    def drain(self, limit: Optional[int] = None) -> List[Job]:
        """Pop up to ``limit`` jobs (all, when None) in fairness order."""
        jobs: List[Job] = []
        while limit is None or len(jobs) < limit:
            job = self.pop()
            if job is None:
                break
            jobs.append(job)
        return jobs

    def depth_by_client(self) -> Dict[str, int]:
        return {client: len(heap)
                for client, heap in self._per_client.items()}
