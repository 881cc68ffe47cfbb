"""Parallel, cached, *supervised* execution of the experiment matrix.

The (workload, configuration) matrix is a set of independent gem5-style
simulations; :func:`run_matrix_parallel` fans them out over a process pool
and reuses previously computed results from the persistent
:class:`~repro.harness.result_cache.ResultCache`.

Work is partitioned by **(workload, fence mode)** rather than by single
run: configurations sharing a fence mode (IQ and WB both run the EDE
binary) run in the same worker so the dynamic trace is built once per
group, exactly as the serial :func:`~repro.harness.runner.run_matrix`
shares traces.  Each worker returns its group as one pickled object graph,
which preserves the ``result.built`` identity-sharing between the group's
results.  Results are reassembled in the caller's (workload, config)
order, so output is deterministic and equal to a serial run.

Execution is supervised (:mod:`repro.harness.supervisor`): every group
gets a wall-clock timeout and a retry budget with exponential backoff,
worker death respawns the pool and re-enqueues only the lost groups, and
repeated pool failure degrades to in-process serial execution.  Each
group's results are persisted to the result cache **as the group
completes**, so an interrupted matrix (Ctrl-C, OOM kill, power loss)
resumes from the finished groups instead of restarting.  The run's
per-group attempts, latencies and failure causes are available afterwards
from :func:`last_matrix_report`.

Workers are additionally *zero-rebuild*: each group serves its trace from
the persistent trace cache (:mod:`repro.harness.trace_cache`), so a warm
matrix run loads compact serialized traces and performs no trace
interpretation at all; a cold run builds each (workload, fence mode)
trace exactly once across all invocations.

Environment variables:

* ``REPRO_PARALLEL`` — default worker count (``0``/``1`` force the
  in-process serial path; unset means one worker per CPU).
* ``REPRO_TIMEOUT`` / ``REPRO_RETRIES`` / ``REPRO_BACKOFF`` — resilience
  policy (see :mod:`repro.harness.supervisor`).
* ``REPRO_RESULT_CACHE=0`` / ``REPRO_CACHE_DIR`` — see
  :mod:`repro.harness.result_cache`.
* ``REPRO_TRACE_CACHE=0`` — disable the trace cache (see
  :mod:`repro.harness.trace_cache`).
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos import chaos_point
from repro.harness.configs import A72Params, Configuration, DEFAULT_PARAMS
from repro.harness.envutil import knob
from repro.harness.result_cache import ResultCache
from repro.harness.supervisor import (
    MatrixReport,
    SupervisorConfig,
    SupervisorError,
    run_supervised,
)
from repro.harness.trace_cache import TRACE_SUBDIR, TraceCache
from repro.workloads import base as workload_base


@dataclasses.dataclass(frozen=True)
class RunSummary:
    """Slim, always-picklable digest of one simulation.

    :class:`~repro.harness.runner.RunResult` carries the full trace,
    functional memory and persist log; this is the light-weight form for
    reporting and cross-process status (e.g. progress displays).
    """

    workload: str
    config: str
    cycles: int
    instructions: int
    ipc: float
    verdict: str
    violations: int

    @classmethod
    def from_result(cls, result) -> "RunSummary":
        return cls(
            workload=result.workload,
            config=result.config.name,
            cycles=result.cycles,
            instructions=result.instructions,
            ipc=result.ipc,
            verdict=result.consistency.verdict,
            violations=len(result.consistency.violations),
        )


def resolve_workers(max_workers: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_PARALLEL`` > CPU count."""
    if max_workers is None:
        max_workers = knob("REPRO_PARALLEL")
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    return max(1, max_workers)


#: Report of the most recent :func:`run_matrix_parallel` in this process.
_LAST_REPORT: Optional[MatrixReport] = None


def last_matrix_report() -> Optional[MatrixReport]:
    """The :class:`MatrixReport` of this process's most recent
    :func:`run_matrix_parallel` call (None before the first call)."""
    return _LAST_REPORT


def _simulate_group(task: Tuple[str, Tuple[Configuration, ...],
                                workload_base.Scale, A72Params,
                                Optional[str]]
                    ) -> Dict[str, object]:
    """Worker: run every configuration of one (workload, fence mode) group.

    The group's :class:`BuiltWorkload` is loaded from the trace cache
    (built and stored only on a miss) and shared across the group's
    configurations, mirroring the serial runner.  Module-level so it
    pickles for :class:`~concurrent.futures.ProcessPoolExecutor`.
    """
    from repro.harness.runner import run_one

    from repro.harness.profiling import maybe_profile

    workload, configs, scale, params, trace_dir = task
    mode = configs[0].fence_mode
    chaos_point("worker", "%s/%s" % (workload, mode))
    if trace_dir is not None:
        # load_or_build profiles its own load/build phases.
        built = workload_base.build(workload, mode, scale,
                                    cache=TraceCache(trace_dir),
                                    params=params)
    else:
        with maybe_profile("%s-%s" % (workload, mode), "build"):
            built = workload_base.build(workload, mode, scale, params=params)
    return {
        config.name: run_one(workload, config, scale, params, built=built)
        for config in configs
    }


def run_matrix_parallel(workloads: Sequence[str],
                        configs: Sequence[Configuration],
                        scale: workload_base.Scale = workload_base.BENCH_SCALE,
                        params: A72Params = DEFAULT_PARAMS,
                        max_workers: Optional[int] = None,
                        cache: Optional[bool] = None,
                        cache_dir: Optional[os.PathLike] = None,
                        trace_cache: Optional[bool] = None,
                        timeout: Optional[float] = None,
                        retries: Optional[int] = None,
                        backoff: Optional[float] = None,
                        ) -> Dict[str, Dict[str, object]]:
    """Run every workload under every configuration, supervised and cached.

    Drop-in replacement for :func:`repro.harness.runner.run_matrix`: same
    result-dict shape, deterministic (workload, config) ordering, equal
    results.  ``cache=None`` follows ``REPRO_RESULT_CACHE`` (on by
    default); ``max_workers=None`` follows ``REPRO_PARALLEL`` (one worker
    per CPU by default, ``<=1`` selects the in-process serial path).

    ``trace_cache=None`` follows ``REPRO_TRACE_CACHE`` (on by default),
    except that an explicit ``cache=False`` — "no disk caching, please" —
    also disables the trace cache unless ``trace_cache`` is set
    explicitly.  Trace entries live under ``cache_dir``/traces when
    ``cache_dir`` is given, the default trace directory otherwise.

    ``timeout``/``retries``/``backoff`` override ``REPRO_TIMEOUT`` /
    ``REPRO_RETRIES`` / ``REPRO_BACKOFF`` for this call (see
    :mod:`repro.harness.supervisor`).  Completed groups are written to
    the result cache immediately, so an interrupted call leaves every
    finished group persisted; the rerun re-simulates only the rest.

    Raises :class:`~repro.harness.supervisor.SupervisorError` when any
    group fails permanently — after persisting every group that did
    succeed, so a rerun resumes rather than restarts.
    """
    global _LAST_REPORT
    workloads = list(workloads)
    configs = list(configs)
    explicit_no_cache = cache is False
    if cache is None:
        cache = knob("REPRO_RESULT_CACHE")
    store: Optional[ResultCache] = ResultCache(cache_dir) if cache else None

    if trace_cache is None:
        trace_cache = False if explicit_no_cache else knob("REPRO_TRACE_CACHE")
    trace_dir: Optional[str] = None
    if trace_cache:
        if cache_dir is not None:
            trace_dir = str(Path(cache_dir) / TRACE_SUBDIR)
        else:
            trace_dir = str(TraceCache().root)

    results: Dict[str, Dict[str, object]] = {
        workload: {} for workload in workloads
    }

    # Resolve cache hits first so only genuinely missing runs are grouped.
    keys: Dict[Tuple[str, str], str] = {}
    missing: List[Tuple[str, Configuration]] = []
    resumed = 0
    for workload in workloads:
        for config in configs:
            if store is not None:
                key = store.key(workload, config, scale, params)
                keys[(workload, config.name)] = key
                cached = store.load(key)
                if cached is not None:
                    results[workload][config.name] = cached
                    resumed += 1
                    continue
            missing.append((workload, config))

    # Group misses by (workload, fence mode): one trace build per group.
    groups: Dict[Tuple[str, str], List[Configuration]] = {}
    for workload, config in missing:
        groups.setdefault((workload, config.fence_mode), []).append(config)

    tasks = [
        ("%s/%s" % (workload, mode),
         (workload, tuple(group_configs), scale, params, trace_dir))
        for (workload, mode), group_configs in groups.items()
    ]

    def _persist(task_id: str, per_config: Dict[str, object]) -> None:
        """Store one finished group's results the moment they exist, so
        an interrupted matrix resumes instead of restarting."""
        workload = task_id.split("/", 1)[0]
        for name, result in per_config.items():
            results[workload][name] = result
            if store is not None:
                store.store(keys[(workload, name)], result)

    config_ = SupervisorConfig.from_env(
        max_workers=resolve_workers(max_workers),
        timeout=timeout, retries=retries, backoff=backoff)
    _, report = run_supervised(tasks, _simulate_group, config_,
                               on_result=_persist)
    report.resumed_from_cache = resumed
    _LAST_REPORT = report
    if not report.all_succeeded:
        names = ", ".join(g.group for g in report.failed())
        raise SupervisorError(
            "%d group(s) failed permanently after retries: %s\n%s"
            % (len(report.failed()), names, report.describe()), report)

    # Reassemble in the caller's (workload, config) order so iteration
    # order is identical to the serial runner's.
    return {
        workload: {
            config.name: results[workload][config.name] for config in configs
        }
        for workload in workloads
    }


def summarize_matrix(results: Dict[str, Dict[str, object]],
                     report: Optional[MatrixReport] = None,
                     ) -> List[RunSummary]:
    """Flatten a result matrix into :class:`RunSummary` rows.

    When ``report`` is given (a :class:`MatrixReport` from the run that
    produced ``results``), the rows are also attached to
    ``report.summaries`` so one object carries both the scientific
    outcome and the execution story.
    """
    rows = [
        RunSummary.from_result(run)
        for per_config in results.values()
        for run in per_config.values()
    ]
    if report is not None:
        report.summaries = rows
    return rows
