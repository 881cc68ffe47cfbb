"""Run one (workload, configuration) pair and collect every statistic.

This is the equivalent of a single gem5 simulation in the paper's setup:
build the workload's dynamic trace under the configuration's fence mode,
simulate it on a fresh core + memory system under the configuration's
enforcement policy, and return cycles, IPC, the issue histogram, NVM buffer
samples, the persist log and the crash-consistency verdict.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.chaos import chaos_point
from repro.consistency.checker import CheckResult, check_run
from repro.harness.configs import A72Params, Configuration, DEFAULT_PARAMS
from repro.harness.envutil import knob
from repro.harness.profiling import maybe_profile
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.memory.persist_domain import PersistLog
from repro.nvmfw.framework import BuiltWorkload
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.replay import meta_for
from repro.pipeline.stats import PipelineStats
from repro.workloads import base as workload_base


@dataclasses.dataclass
class RunResult:
    """Everything measured from one simulation."""

    workload: str
    config: Configuration
    cycles: int
    stats: PipelineStats
    nvm_pending_samples: List[int]
    nvm_media_writes: int
    nvm_coalesced_writes: int
    persist_log: PersistLog
    consistency: CheckResult
    built: BuiltWorkload
    #: Per-core pipeline stats for multi-core runs (ascending core id);
    #: ``None`` for single-core runs, so their results are unchanged.
    core_stats: Optional[List[PipelineStats]] = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def instructions(self) -> int:
        return self.stats.retired


def warm_hierarchy(hierarchy: CacheHierarchy, built: BuiltWorkload) -> None:
    """Install the workload's data (clean) before timing.

    The paper's runs are 100 000 operations long and therefore measure a
    warm steady state; the scaled-down runs here warm the caches explicitly
    so that cold-start NVM read misses do not dominate.
    """
    for line in built.warm_lines(hierarchy.params.line_size):
        for cache in (hierarchy.l3, hierarchy.l2, hierarchy.l1d):
            cache.insert(line)


def run_one(workload: str, config: Configuration,
            scale: workload_base.Scale = workload_base.BENCH_SCALE,
            params: A72Params = DEFAULT_PARAMS,
            built: Optional[BuiltWorkload] = None,
            warm: bool = True,
            trace_cache=None) -> RunResult:
    """Simulate one workload under one configuration.

    ``built`` lets callers reuse a pre-built trace (the build step is
    deterministic per (workload, fence_mode, scale)); ``trace_cache`` (a
    :class:`~repro.harness.trace_cache.TraceCache`) serves the build from
    the on-disk trace cache instead, skipping trace interpretation on a
    hit.  ``REPRO_PROFILE=1`` dumps per-phase (build / load / simulate)
    cProfile stats to ``.benchmarks/profile/`` (see
    :mod:`repro.harness.profiling`); with a trace cache the ``load``
    (cache deserialization) and ``build`` (miss) phases are profiled
    inside :func:`~repro.harness.trace_cache.load_or_build`, labelled by
    fence mode.

    Builds with ``cores > 1`` are routed through the lockstep multi-core
    driver (:mod:`repro.multicore.system`) automatically.
    """
    chaos_point("run_one", "%s/%s" % (workload, config.name))
    label = "%s-%s" % (workload, config.name)
    if built is None:
        if trace_cache is not None:
            # load_or_build profiles its own load/build phases; wrapping
            # it here would fold cache deserialization into "build".
            built = workload_base.build(workload, config.fence_mode, scale,
                                        cache=trace_cache, params=params)
        else:
            with maybe_profile(label, "build"):
                built = workload_base.build(workload, config.fence_mode,
                                            scale, params=params)

    multicore = getattr(built, "cores", 1) > 1
    with maybe_profile(label, "simulate"):
        if multicore:
            from repro.multicore.system import simulate_built

            sim = simulate_built(built, config, params, warm=warm)
            stats = sim.stats
            controller = sim.controller
            store_visibility = sim.store_visibility
            core_stats = sim.core_stats
        else:
            controller = MemoryController(
                address_map=params.address_map,
                dram_params=params.dram,
                nvm_params=params.nvm,
            )
            hierarchy = CacheHierarchy(controller, params.hierarchy)
            if warm:
                warm_hierarchy(hierarchy, built)
            core = OutOfOrderCore(built.trace, hierarchy, config.policy,
                                  params.core, replay=meta_for(built))
            stats = core.run()
            store_visibility = core.store_visibility
            core_stats = None
        # Drain outstanding NVM writes so buffer-occupancy samples (Fig. 10)
        # cover the whole run even at small scales.
        controller.nvm.drain_all(stats.cycles)

    consistency = check_run(
        obligations=built.obligations,
        persist_log=controller.persist_log,
        store_visibility=store_visibility,
        safe_by_spec=config.safe_by_spec,
    )

    return RunResult(
        workload=workload,
        config=config,
        cycles=stats.cycles,
        stats=stats,
        nvm_pending_samples=list(controller.nvm.pending_samples),
        nvm_media_writes=controller.nvm.stats.media_writes,
        nvm_coalesced_writes=controller.nvm.stats.coalesced_writes,
        persist_log=controller.persist_log,
        consistency=consistency,
        built=built,
        core_stats=core_stats,
    )


def run_matrix(workloads: List[str], configs: List[Configuration],
               scale: workload_base.Scale = workload_base.BENCH_SCALE,
               params: A72Params = DEFAULT_PARAMS,
               parallel: Optional[bool] = None,
               max_workers: Optional[int] = None,
               cache: Optional[bool] = None,
               ) -> Dict[str, Dict[str, RunResult]]:
    """Run every workload under every configuration.

    Traces are rebuilt per fence mode (shared between IQ and WB, which run
    the same program on different hardware).

    ``parallel=True`` (or setting ``REPRO_PARALLEL``) and ``cache=True``
    delegate to the :mod:`repro.harness.parallel` engine, which fans the
    independent simulations out over a process pool and/or reuses results
    from the persistent on-disk cache; output is deterministic and equal
    to the serial path.  The default — no arguments, no env vars — is the
    plain in-process serial run with no caching.
    """
    if parallel is None:
        parallel = knob("REPRO_PARALLEL") is not None
    if parallel or cache:
        from repro.harness.parallel import run_matrix_parallel

        return run_matrix_parallel(
            list(workloads), list(configs), scale, params,
            max_workers=max_workers, cache=cache)
    results: Dict[str, Dict[str, RunResult]] = {}
    for workload in workloads:
        built_by_mode: Dict[str, BuiltWorkload] = {}
        per_config: Dict[str, RunResult] = {}
        for config in configs:
            built = built_by_mode.get(config.fence_mode)
            if built is None:
                built = workload_base.build(workload, config.fence_mode, scale)
                built_by_mode[config.fence_mode] = built
            per_config[config.name] = run_one(
                workload, config, scale, params, built=built)
        results[workload] = per_config
    return results
