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

Traces are never stored: each group builds its trace once, in memory, and
a group whose results are all in the result cache builds nothing.  A
build costs about what loading a stored trace would.

Environment variables:

* ``REPRO_PARALLEL`` — default worker count (``0``/``1`` force the
  in-process serial path; unset means one worker per CPU).
* ``REPRO_RESULT_CACHE=0`` / ``REPRO_CACHE_DIR`` — see
  :mod:`repro.harness.result_cache`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos import chaos_point
from repro.harness.configs import A72Params, Configuration, DEFAULT_PARAMS
from repro.harness.envutil import knob
from repro.harness.profiling import maybe_profile
from repro.harness.result_cache import resolve_store
from repro.harness.supervisor import (
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT_S,
    MatrixReport,
    SupervisorConfig,
    SupervisorError,
    run_supervised,
)
from repro.workloads import base as workload_base


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


def simulate_group(task: Tuple[str, Sequence[Configuration],
                               workload_base.Scale, A72Params]
                   ) -> Dict[str, object]:
    """Worker: run every configuration of one (workload, fence mode) group.

    The group's :class:`BuiltWorkload` is built once, in memory, and
    shared across the group's configurations, mirroring the serial
    runner.  Module-level so it pickles for
    :class:`~concurrent.futures.ProcessPoolExecutor`; the service
    scheduler runs its simulate groups through it too.
    """
    from repro.harness.runner import run_one

    workload, configs, scale, params = task
    mode = configs[0].fence_mode
    chaos_point("worker", "%s/%s" % (workload, mode))
    with maybe_profile("%s-%s" % (workload, mode), "build"):
        built = workload_base.build(workload, mode, scale)
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
                        timeout: Optional[float] = DEFAULT_TIMEOUT_S,
                        retries: int = DEFAULT_RETRIES,
                        backoff: float = DEFAULT_BACKOFF_S,
                        ) -> Dict[str, Dict[str, object]]:
    """Run every workload under every configuration, supervised and cached.

    Drop-in replacement for :func:`repro.harness.runner.run_matrix`: same
    result-dict shape, deterministic (workload, config) ordering, equal
    results.  ``max_workers=None`` follows ``REPRO_PARALLEL`` (one worker
    per CPU by default, ``<=1`` selects the in-process serial path);
    ``cache`` and ``cache_dir`` pick the result store as
    :func:`~repro.harness.result_cache.resolve_store` describes.

    ``timeout``/``retries``/``backoff`` set the supervisor's policy for
    this call (see :mod:`repro.harness.supervisor`).  Completed groups
    are written to the result cache immediately, so an interrupted call
    leaves every finished group persisted; the rerun re-simulates only
    the rest.

    Raises :class:`~repro.harness.supervisor.SupervisorError` when any
    group fails permanently — after persisting every group that did
    succeed, so a rerun resumes rather than restarts.
    """
    global _LAST_REPORT
    workloads = list(workloads)
    configs = list(configs)
    store = resolve_store(cache, cache_dir)

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
         (workload, tuple(group_configs), scale, params))
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
    _, report = run_supervised(tasks, simulate_group, config_,
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

