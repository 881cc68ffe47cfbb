"""Async dispatcher: single-flight dedup, trace-sharing batches,
supervised execution.

The scheduler owns the job registry and the bounded queue and runs one
dispatch loop on the event loop:

1. **Admission** (:meth:`Scheduler.submit`): a spec's content-addressed
   ID is looked up first — an identical job already queued or running
   absorbs the submission (*single-flight*: the duplicate caller waits
   on the same :class:`~repro.service.jobs.Job`, the simulation runs
   once); a simulate job whose result is already in the persistent
   :class:`~repro.harness.result_cache.ResultCache` completes instantly
   without queueing.  Only genuinely new work reaches the queue, where
   admission control may reject it (backpressure).

2. **Batching**: each dispatch cycle drains the queue (in client-fair
   order) and groups simulate jobs by (workload, fence mode, scale) —
   the same trace-sharing grouping
   :func:`~repro.harness.parallel.run_matrix_parallel` uses — so five
   configurations of one workload cost one trace build.  Jobs arriving
   while a batch executes form the next batch.

3. **Execution**: batches run through the fault-tolerant
   :func:`~repro.harness.supervisor.run_supervised` pool (wall-clock
   timeouts, retry budgets, pool respawn on worker death, degrade to
   serial), in a dedicated dispatch thread so the event loop keeps
   serving HTTP while simulations run.  Group results are persisted to
   the result cache the moment they complete, so everything the service
   computes is reusable by later jobs *and* by the offline bench/
   experiment entry points — one shared cache population.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.harness.configs import CONFIG_BY_NAME, DEFAULT_PARAMS
from repro.harness.parallel import resolve_workers, simulate_group
from repro.harness.result_cache import ReportCache
from repro.harness.supervisor import (
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    SupervisorConfig,
    run_supervised,
)
from repro.harness.trace_cache import resolve_caches
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    KIND_OPTIMIZE,
    KIND_SIMULATE,
    job_id_for,
    optimize_cache_key,
    result_cache_key,
)
from repro.service.metrics import ServiceMetrics
from repro.service.queue import BoundedJobQueue, QueueFullError
from repro.workloads import base as workload_base

__all__ = ["Scheduler", "QueueFullError", "DrainingError"]

#: Terminal jobs kept for status queries before eviction kicks in.
DEFAULT_MAX_HISTORY = 4096


class DrainingError(Exception):
    """Admission refused: the scheduler is draining for shutdown.

    ``retry_after_s`` tells the client when to try again — by then this
    process is gone and (in a cluster) the coordinator has re-routed
    the shard's keys to a healthy peer.
    """

    def __init__(self, retry_after_s: float = 1.0):
        super().__init__(
            "service is draining for shutdown; not accepting new jobs")
        self.retry_after_s = retry_after_s


def _execute_task(payload: tuple):
    """Worker for one batch task; module-level so it pickles for the
    supervised process pool.

    ``("simulate", workload, config_names, scale_tuple, params,
    trace_dir)`` runs the batch engine's
    :func:`~repro.harness.parallel.simulate_group`: the group's trace is
    built once (served from the trace cache when possible) and every
    configuration is simulated against it — exactly the serial runner's
    trace sharing, so results are bit-identical to
    :func:`repro.harness.runner.run_matrix`.

    ``("analyze", workload, mode, scale_tuple)`` runs the static
    analyzer and returns the report as a JSON-ready dict.

    ``("optimize", workload, config_name, scale_tuple, conservative,
    budget, params)`` runs the proof-guided fence autotuner (static
    search plus the dynamic crash-sweep oracle) and returns the
    optimization report as a JSON-ready dict.
    """
    kind = payload[0]
    if kind == KIND_SIMULATE:
        _, workload, config_names, scale_tuple, params, trace_dir = payload
        return simulate_group((
            workload, [CONFIG_BY_NAME[name] for name in config_names],
            workload_base.Scale(*scale_tuple), params, trace_dir))
    if kind == KIND_OPTIMIZE:
        from repro.analysis.autotune import autotune_workload

        _, workload, config_name, scale_tuple, conservative, budget, \
            params = payload
        report = autotune_workload(
            workload, config_name, scale=workload_base.Scale(*scale_tuple),
            conservative=conservative, budget=budget, params=params)
        return report.to_dict()
    from repro.analysis.report import analyze_workload

    _, workload, mode, scale_tuple = payload
    report = analyze_workload(workload, mode,
                              scale=workload_base.Scale(*scale_tuple))
    return report.to_dict()


class Scheduler:
    """Owns jobs, queue and dispatch; every method runs on the loop thread
    (the HTTP server and :meth:`ThreadedServer.call` guarantee that)."""

    def __init__(self,
                 queue: Optional[BoundedJobQueue] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 max_workers: Optional[int] = None,
                 cache: Optional[bool] = None,
                 cache_dir=None,
                 trace_cache: Optional[bool] = None,
                 params=DEFAULT_PARAMS,
                 batch_limit: Optional[int] = None,
                 timeout: Optional[float] = DEFAULT_TIMEOUT_S,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF_S,
                 max_history: int = DEFAULT_MAX_HISTORY):
        self.queue = queue if queue is not None else BoundedJobQueue()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.max_workers = resolve_workers(max_workers)
        self.queue.workers = self.max_workers
        self.params = params
        self.batch_limit = batch_limit
        self.max_history = max_history
        self._supervision = dict(timeout=timeout, retries=retries,
                                 backoff=backoff)

        self.store, self.trace_dir = resolve_caches(cache, cache_dir,
                                                    trace_cache)
        self.report_store: Optional[ReportCache] = (
            ReportCache(cache_dir) if self.store is not None else None)

        self.jobs: Dict[str, Job] = {}
        self._wake = asyncio.Event()
        self._resume = asyncio.Event()
        self._resume.set()
        self.draining = False
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._dispatch_task: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dispatch")

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin dispatching (call from a running event loop)."""
        self._loop = asyncio.get_running_loop()
        self._dispatch_task = self._loop.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        self._stopping = True
        self._wake.set()
        self._resume.set()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
        self._executor.shutdown(wait=False)

    @property
    def paused(self) -> bool:
        return not self._resume.is_set()

    def pause(self) -> None:
        """Hold dispatch (submissions still queue) — tests and drains."""
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()
        self._wake.set()

    def begin_drain(self) -> None:
        """Stop admitting; keep dispatching until admitted work is done.

        Overrides a paused scheduler — drain means *finish everything
        already accepted*, so dispatch must run.
        """
        self.draining = True
        self._resume.set()
        self._wake.set()

    async def drain(self, poll_s: float = 0.05) -> None:
        """Begin draining and block until no job is queued or in flight.

        Every group that completes during the drain is persisted to the
        result cache by the normal completion path, so a drained worker
        exits with zero lost admitted work.
        """
        self.begin_drain()
        while len(self.queue) or self.metrics.inflight.value() > 0:
            await asyncio.sleep(poll_s)

    # --- admission ----------------------------------------------------------

    def submit(self, spec: JobSpec, client: str = "anonymous",
               priority: int = 0) -> Tuple[Job, str]:
        """Admit ``spec``; return ``(job, disposition)``.

        Dispositions: ``"created"`` (new job queued), ``"coalesced"``
        (identical job already in flight — single-flight), ``"cached"``
        (result served from the persistent cache without queueing),
        ``"completed"`` (identical job already finished in this
        process).  Raises :class:`QueueFullError` on backpressure and
        :class:`DrainingError` once :meth:`begin_drain` has run.
        """
        spec.validate()
        if self.draining:
            self.metrics.jobs_rejected.inc()
            raise DrainingError(
                retry_after_s=self.queue.suggest_retry_after())
        job_id = job_id_for(spec, self.params)
        existing = self.jobs.get(job_id)
        if existing is not None:
            if existing.state not in JobState.TERMINAL:
                existing.coalesced += 1
                self.metrics.coalesced.inc()
                existing.add_event("coalesced", client=client)
                return existing, "coalesced"
            if existing.state == JobState.DONE:
                # Finished in-process: serve the terminal job as-is.
                return existing, "completed"
            # Previous attempt failed: fall through and try again.

        job = Job(spec, job_id, client=client, priority=priority)
        cache_key = None
        cache_store = None
        if spec.kind == KIND_SIMULATE and self.store is not None:
            cache_key = result_cache_key(spec, self.params)
            cache_store = self.store
        elif spec.kind == KIND_OPTIMIZE and self.report_store is not None:
            cache_key = optimize_cache_key(spec, self.params)
            cache_store = self.report_store
        if cache_store is not None:
            cached = cache_store.load(cache_key)
            if cached is not None:
                job.result = cached
                job.from_cache = True
                self._remember(job)
                self.metrics.jobs_submitted.inc(kind=spec.kind)
                self.metrics.cache_hits.inc()
                job.transition(JobState.DONE)
                self.metrics.note_outcome("cached", job.latency_s)
                return job, "cached"
            self.metrics.cache_misses.inc()

        try:
            self.queue.put(job)
        except QueueFullError:
            self.metrics.jobs_rejected.inc()
            raise
        self._remember(job)
        self.metrics.jobs_submitted.inc(kind=spec.kind)
        self.metrics.queue_depth.set(len(self.queue))
        job.add_event("queued", position=len(self.queue))
        self._wake.set()
        return job, "created"

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def _remember(self, job: Job) -> None:
        self.jobs[job.id] = job
        if len(self.jobs) > self.max_history:
            for victim_id, victim in list(self.jobs.items()):
                if victim.state in JobState.TERMINAL:
                    del self.jobs[victim_id]
                    if len(self.jobs) <= self.max_history:
                        break

    # --- dispatch -----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while not self._stopping:
            await self._wake.wait()
            self._wake.clear()
            await self._resume.wait()
            if self._stopping:
                return
            while len(self.queue) and not self.paused:
                batch = self.queue.drain(self.batch_limit)
                self.metrics.queue_depth.set(len(self.queue))
                await self._run_batch(batch)

    def _make_tasks(self, batch: List[Job]
                    ) -> Tuple[List[Tuple[str, tuple]], Dict[str, List[Job]]]:
        """Group a batch into supervised tasks.

        Simulate jobs sharing (workload, fence mode, scale) become one
        task — one trace build serves all their configurations, the
        grouping ``run_matrix_parallel`` uses.  Analysis jobs are one
        task each.
        """
        tasks: List[Tuple[str, tuple]] = []
        jobmap: Dict[str, List[Job]] = {}
        sim_groups: Dict[tuple, List[Job]] = {}
        for job in batch:
            spec = job.spec
            if spec.kind == KIND_SIMULATE:
                key = (spec.workload, spec.configuration.fence_mode,
                       spec.ops_per_txn, spec.txns, spec.seed, spec.cores)
                sim_groups.setdefault(key, []).append(job)
            elif spec.kind == KIND_OPTIMIZE:
                task_id = "opt:%s/%s@%dx%d#%d%s b%d" % (
                    spec.workload, spec.config, spec.ops_per_txn, spec.txns,
                    spec.seed, "+cons" if spec.conservative else "",
                    spec.budget)
                tasks.append((task_id, (spec.kind, spec.workload, spec.config,
                                        (spec.ops_per_txn, spec.txns,
                                         spec.seed), spec.conservative,
                                        spec.budget, self.params)))
                jobmap[task_id] = [job]
            else:
                task_id = "ana:%s/%s@%dx%d#%d" % (
                    spec.workload, spec.config, spec.ops_per_txn, spec.txns,
                    spec.seed)
                tasks.append((task_id, (spec.kind, spec.workload, spec.config,
                                        (spec.ops_per_txn, spec.txns,
                                         spec.seed))))
                jobmap[task_id] = [job]
        for (workload, mode, ops, txns, seed, cores), jobs in \
                sim_groups.items():
            # The seed (and core count) is part of the identity: two
            # groups differing only by seed are distinct tasks, and a
            # colliding ID would let one group's completion overwrite
            # the other's in jobmap.
            task_id = "sim:%s/%s@%dx%d#%d/c%d" % (workload, mode, ops, txns,
                                                  seed, cores)
            config_names = tuple(job.spec.config for job in jobs)
            tasks.append((task_id, (KIND_SIMULATE, workload, config_names,
                                    (ops, txns, seed, cores), self.params,
                                    self.trace_dir)))
            jobmap[task_id] = jobs
        return tasks, jobmap

    async def _run_batch(self, batch: List[Job]) -> None:
        for job in batch:
            job.transition(JobState.RUNNING)
        self.metrics.inflight.add(len(batch))
        tasks, jobmap = self._make_tasks(batch)
        config = SupervisorConfig.from_env(max_workers=self.max_workers,
                                           **self._supervision)
        loop = asyncio.get_running_loop()

        def on_result(task_id: str, value) -> None:
            # Called on the dispatch thread as each group completes;
            # marshal completion onto the loop so job state and metrics
            # stay single-threaded.
            loop.call_soon_threadsafe(self._complete_group,
                                      jobmap[task_id], value)

        def run() -> object:
            return run_supervised(tasks, _execute_task, config,
                                  on_result=on_result)

        _, report = await loop.run_in_executor(self._executor, run)
        self.metrics.groups_executed.inc(len(tasks))
        for group_report in report.failed():
            self._fail_group(jobmap[group_report.group],
                             "; ".join(group_report.failure_causes) or
                             "group failed")

    def _complete_group(self, jobs: List[Job], value) -> None:
        for job in jobs:
            if job.spec.kind == KIND_SIMULATE:
                result = value[job.spec.config]
                job.result = result
                if self.store is not None:
                    self.store.store(result_cache_key(job.spec, self.params),
                                     result)
                self.metrics.simulations_run.inc()
            else:
                job.result = value
                if (job.spec.kind == KIND_OPTIMIZE
                        and self.report_store is not None):
                    self.report_store.store(
                        optimize_cache_key(job.spec, self.params), value)
            job.transition(JobState.DONE)
            latency = job.latency_s
            self.metrics.note_outcome("done", latency)
            if latency is not None:
                self.queue.note_latency(latency)
        self.metrics.inflight.add(-len(jobs))

    def _fail_group(self, jobs: List[Job], error: str) -> None:
        for job in jobs:
            job.transition(JobState.FAILED, error=error)
            self.metrics.note_outcome("failed", job.latency_s)
        self.metrics.inflight.add(-len(jobs))
