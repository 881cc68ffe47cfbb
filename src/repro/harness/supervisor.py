"""Fault-tolerant supervised execution of independent task groups.

``pool.map`` is all-or-nothing: one worker crash, hang or poisoned input
aborts the whole experiment matrix and discards every finished
simulation.  This module replaces it with a futures-based supervisor
that treats the matrix the way the paper treats its hardware — bounded
waiting and ordered recovery:

* every group gets a **wall-clock timeout**; a group that blows it is
  recorded, backed off, and retried (the stuck worker's pool is recycled,
  since a stranded process never frees its slot);
* transient failures get a **retry budget with exponential backoff**;
* **worker death** (``BrokenProcessPool`` — OOM kill, segfault, chaos
  ``os._exit``) respawns the pool and re-enqueues only the groups that
  were lost, preserving everything already finished;
* when the pool keeps dying past its respawn budget, execution
  **degrades to in-process serial** for the remaining groups instead of
  giving up;
* each group's result is handed to an ``on_result`` callback *as it
  completes*, so callers can persist incrementally and an interrupted
  run resumes instead of restarting;
* the whole run is summarized in a structured :class:`MatrixReport` —
  per-group attempts, latencies and failure causes — so flaky
  infrastructure is visible instead of silent.

The policy is set per call (``timeout``/``retries``/``backoff`` on
:func:`~repro.harness.parallel.run_matrix_parallel` and the service
scheduler); the defaults are the module constants below.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.envutil import check_env

DEFAULT_MAX_POOL_RESPAWNS = 3

#: Per-group wall-clock timeout in seconds (``0`` disables it).
DEFAULT_TIMEOUT_S = 600.0
#: Failed attempts tolerated per group beyond the first.
DEFAULT_RETRIES = 2
#: Base retry backoff in seconds, doubled per failure.
DEFAULT_BACKOFF_S = 0.1

#: Exponential backoff never sleeps longer than this per retry.
BACKOFF_CAP_S = 5.0


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """Resilience policy for one supervised run."""

    max_workers: int = 1
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    max_pool_respawns: int = DEFAULT_MAX_POOL_RESPAWNS

    @classmethod
    def from_env(cls, max_workers: int = 1,
                 timeout: Optional[float] = DEFAULT_TIMEOUT_S,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF_S,
                 max_pool_respawns: int = DEFAULT_MAX_POOL_RESPAWNS,
                 ) -> "SupervisorConfig":
        """The policy for one run, after validating the environment.

        Every registered knob is parsed first (and every retired one
        refused), so a junk value fails a run here even when an argument
        overrides that knob.  A timeout of ``0`` or ``None`` disables the
        timeout.
        """
        check_env()
        if retries < 0:
            raise ValueError("retries must be >= 0, got %d" % retries)
        if backoff < 0:
            raise ValueError("backoff must be >= 0, got %g" % backoff)
        return cls(
            max_workers=max(1, max_workers),
            timeout_s=float(timeout) if timeout else None,
            retries=retries,
            backoff_s=float(backoff),
            max_pool_respawns=max_pool_respawns,
        )

    def backoff_delay(self, failures: int) -> float:
        """Exponential backoff after the ``failures``-th failed attempt."""
        if self.backoff_s <= 0:
            return 0.0
        return min(self.backoff_s * (2 ** max(0, failures - 1)),
                   BACKOFF_CAP_S)


@dataclasses.dataclass
class Attempt:
    """One execution attempt of one group."""

    outcome: str          # "ok" | "error" | "timeout" | "preempted"
    where: str            # "pool" | "serial"
    latency_s: float
    error: Optional[str] = None


@dataclasses.dataclass
class GroupReport:
    """Everything the supervisor observed about one group."""

    group: str
    attempts: List[Attempt] = dataclasses.field(default_factory=list)
    succeeded: bool = False

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def failures(self) -> int:
        """Attempts that consumed retry budget (errors and timeouts;
        preemptions — innocent bystanders of a pool recycle — do not)."""
        return sum(1 for a in self.attempts
                   if a.outcome in ("error", "timeout"))

    @property
    def failure_causes(self) -> List[str]:
        return [a.error or a.outcome for a in self.attempts
                if a.outcome != "ok"]


@dataclasses.dataclass
class MatrixReport:
    """Structured account of one supervised matrix run."""

    groups: List[GroupReport] = dataclasses.field(default_factory=list)
    pool_respawns: int = 0
    degraded_to_serial: bool = False
    wall_time_s: float = 0.0
    #: (workload, config) cells served from the result cache up front.
    resumed_from_cache: int = 0

    @property
    def total_retries(self) -> int:
        return sum(g.retries for g in self.groups)

    @property
    def all_succeeded(self) -> bool:
        return all(g.succeeded for g in self.groups)

    def failed(self) -> List[GroupReport]:
        return [g for g in self.groups if not g.succeeded]

    def group(self, name: str) -> GroupReport:
        for report in self.groups:
            if report.group == name:
                return report
        raise KeyError(name)

    def describe(self) -> str:
        """Human-readable multi-line rendering (logs, bench output)."""
        lines = [
            "matrix: %d group(s), %d retries, %d pool respawn(s), "
            "%d cell(s) resumed from cache, %.2fs wall%s" % (
                len(self.groups), self.total_retries, self.pool_respawns,
                self.resumed_from_cache, self.wall_time_s,
                ", degraded to serial" if self.degraded_to_serial else "")
        ]
        for report in self.groups:
            status = "ok" if report.succeeded else "FAILED"
            causes = ("; ".join(report.failure_causes)
                      if report.failure_causes else "-")
            lines.append("  %-24s %-6s attempts=%d causes: %s"
                         % (report.group, status, len(report.attempts),
                            causes))
        return "\n".join(lines)


class SupervisorError(RuntimeError):
    """One or more groups failed permanently; carries the full report.

    Raised only after every other group has completed (and been handed
    to ``on_result``), so a rerun resumes from the persisted results.
    """

    def __init__(self, message: str, report: MatrixReport):
        super().__init__(message)
        self.report = report


class _TaskState:
    """Supervisor-internal bookkeeping for one group."""

    __slots__ = ("task_id", "payload", "report", "not_before", "deadline",
                 "started")

    def __init__(self, task_id: str, payload, report: GroupReport):
        self.task_id = task_id
        self.payload = payload
        self.report = report
        self.not_before = 0.0          # absolute monotonic release time
        self.deadline: Optional[float] = None
        self.started = 0.0

    def record(self, outcome: str, where: str, latency: float,
               error: Optional[str] = None) -> None:
        self.report.attempts.append(
            Attempt(outcome=outcome, where=where, latency_s=latency,
                    error=error))


def run_supervised(tasks: Sequence[Tuple[str, object]],
                   worker: Callable,
                   config: SupervisorConfig,
                   on_result: Optional[Callable[[str, object], None]] = None,
                   ) -> Tuple[Dict[str, object], MatrixReport]:
    """Run ``worker(payload)`` for every ``(task_id, payload)`` under
    supervision; return ``(results by task_id, report)``.

    Results are delivered to ``on_result`` the moment each group
    completes.  Groups that exhaust their retry budget are *not* raised
    here — they are reported as failed in the returned
    :class:`MatrixReport` so the caller can persist the survivors first
    and decide how loudly to fail.
    """
    start = time.monotonic()
    reports = [GroupReport(group=task_id) for task_id, _ in tasks]
    states = [_TaskState(task_id, payload, report)
              for (task_id, payload), report in zip(tasks, reports)]
    report = MatrixReport(groups=reports)
    results: Dict[str, object] = {}

    def succeed(state: _TaskState, where: str, latency: float,
                value) -> None:
        state.record("ok", where, latency)
        state.report.succeeded = True
        results[state.task_id] = value
        if on_result is not None:
            on_result(state.task_id, value)

    remaining = list(states)
    if config.max_workers > 1 and len(states) > 1:
        remaining = _run_pool(remaining, worker, config, report, succeed)
        if remaining:
            report.degraded_to_serial = True
    _run_serial(remaining, worker, config, succeed)
    report.wall_time_s = time.monotonic() - start
    return results, report


def _run_serial(states: List[_TaskState], worker: Callable,
                config: SupervisorConfig, succeed: Callable) -> None:
    """In-process execution with the same retry/backoff discipline.

    Used for ``max_workers <= 1``, single-group runs, and as the
    degraded mode after the process pool exhausted its respawn budget.
    No wall-clock timeout applies: there is no way to preempt our own
    process, which is exactly why the pool path recycles workers
    instead.
    """
    for state in states:
        while not state.report.succeeded:
            began = time.monotonic()
            try:
                value = worker(state.payload)
            except Exception as exc:
                state.record("error", "serial", time.monotonic() - began,
                             "%s: %s" % (type(exc).__name__, exc))
                if state.report.failures > config.retries:
                    break  # budget exhausted: reported as failed
                delay = config.backoff_delay(state.report.failures)
                if delay:
                    time.sleep(delay)
            else:
                succeed(state, "serial", time.monotonic() - began, value)


def _run_pool(states: List[_TaskState], worker: Callable,
              config: SupervisorConfig, report: MatrixReport,
              succeed: Callable) -> List[_TaskState]:
    """Pool execution; returns the groups left for the serial fallback.

    An empty return means every group either succeeded or failed
    permanently; a non-empty return means the pool respawn budget ran
    out and the survivors should be run serially.
    """
    queue = list(states)
    inflight: Dict[object, _TaskState] = {}
    pool = ProcessPoolExecutor(
        max_workers=min(config.max_workers, len(states)))
    try:
        while queue or inflight:
            now = time.monotonic()
            ready = [s for s in queue if s.not_before <= now]
            queue = [s for s in queue if s.not_before > now]
            respawn = False

            for state in ready:
                try:
                    future = pool.submit(worker, state.payload)
                except BrokenProcessPool:
                    respawn = True
                    state.not_before = 0.0
                    queue.append(state)
                    continue
                state.started = time.monotonic()
                state.deadline = (state.started + config.timeout_s
                                  if config.timeout_s else None)
                inflight[future] = state

            if inflight and not respawn:
                done, _ = wait(set(inflight),
                               timeout=_wait_bound(inflight, queue),
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for future in done:
                    state = inflight.pop(future)
                    latency = now - state.started
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        # Worker death poisons every pending future; the
                        # culprit is unknowable, so nobody's retry budget
                        # is charged — the pool respawn budget bounds it.
                        respawn = True
                        state.record("preempted", "pool", latency,
                                     "worker process died (pool broken)")
                        state.not_before = 0.0
                        queue.append(state)
                    except Exception as exc:
                        state.record("error", "pool", latency,
                                     "%s: %s" % (type(exc).__name__, exc))
                        if state.report.failures <= config.retries:
                            state.not_before = now + config.backoff_delay(
                                state.report.failures)
                            queue.append(state)
                    else:
                        succeed(state, "pool", latency, value)

                if not respawn and config.timeout_s:
                    now = time.monotonic()
                    expired = [f for f, s in inflight.items()
                               if s.deadline is not None and now > s.deadline]
                    for future in expired:
                        # The worker is stuck past its wall-clock budget;
                        # it never frees its slot, so recycle the pool.
                        respawn = True
                        state = inflight.pop(future)
                        state.record(
                            "timeout", "pool", now - state.started,
                            "exceeded %.1fs wall-clock timeout"
                            % config.timeout_s)
                        if state.report.failures <= config.retries:
                            state.not_before = now + config.backoff_delay(
                                state.report.failures)
                            queue.append(state)

            if respawn:
                now = time.monotonic()
                for future, state in inflight.items():
                    # Innocent bystanders: re-enqueue without charging
                    # their retry budget.
                    state.record("preempted", "pool", now - state.started,
                                 "pool recycled (failure elsewhere)")
                    state.not_before = 0.0
                    queue.append(state)
                inflight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                report.pool_respawns += 1
                if report.pool_respawns > config.max_pool_respawns:
                    return queue  # degrade to in-process serial
                pool = ProcessPoolExecutor(
                    max_workers=min(config.max_workers, max(1, len(queue))))
                continue

            if not inflight and queue:
                # Everything is backing off; sleep until the first release.
                delay = min(s.not_before for s in queue) - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
        return []
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _wait_bound(inflight: Dict[object, _TaskState],
                queue: List[_TaskState]) -> Optional[float]:
    """How long ``wait`` may block: until the nearest deadline or the
    nearest backoff release, or forever if neither exists."""
    bounds = [s.deadline for s in inflight.values() if s.deadline is not None]
    bounds.extend(s.not_before for s in queue)
    if not bounds:
        return None
    return max(0.0, min(bounds) - time.monotonic())
