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
from repro.harness.profiling import maybe_profile
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy, warm_hierarchy
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


def run_one(workload: str, config: Configuration,
            scale: workload_base.Scale = workload_base.BENCH_SCALE,
            params: A72Params = DEFAULT_PARAMS,
            built: Optional[BuiltWorkload] = None,
            warm: bool = True) -> RunResult:
    """Simulate one workload under one configuration.

    ``built`` lets callers reuse a pre-built trace (the build step is
    deterministic per (workload, fence_mode, scale)).
    ``REPRO_PROFILE=1`` dumps per-phase (build / simulate) cProfile
    stats to ``.benchmarks/profile/`` (see
    :mod:`repro.harness.profiling`).

    Builds with ``cores > 1`` are routed through the lockstep multi-core
    driver (:mod:`repro.multicore.system`) automatically.
    """
    chaos_point("run_one", "%s/%s" % (workload, config.name))
    label = "%s-%s" % (workload, config.name)
    if built is None:
        with maybe_profile(label, "build"):
            built = workload_base.build(workload, config.fence_mode, scale)

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
               ) -> Dict[str, Dict[str, RunResult]]:
    """Run every workload under every configuration, serially.

    Traces are rebuilt per fence mode (shared between IQ and WB, which run
    the same program on different hardware).  This is the in-process
    reference run: no pool, no caches and no knob changes what it does,
    so the engines (:func:`~repro.harness.parallel.run_matrix_parallel`,
    the service) are checked against it.
    """
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
