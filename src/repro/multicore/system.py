"""Lockstep N-core driver: one global clock over N pipelines.

The driver owns the clock.  Every cycle it sets each live core's ``now``
and advances the core's :meth:`~repro.pipeline.core.OutOfOrderCore.lockstep`
loop by one cycle, in ascending core-id order — the deterministic total
order underneath every cross-core interaction (bus publishes, coherence
probes, controller traffic).  When no core makes progress, time
fast-forwards to the earliest wake cycle across all live cores, and each
core charges the skipped cycles to its zero-issue histogram bucket exactly
as the single-core loop does.  Both single-core watchdogs (cycle budget,
no-retire limit) apply to the whole machine.

At N=1 the driver runs a plain :class:`~repro.pipeline.core.OutOfOrderCore`
on a plain :class:`~repro.memory.hierarchy.CacheHierarchy` — no bus, no
coherence directory — through the same loop as
:meth:`~repro.pipeline.core.OutOfOrderCore.run`, so its results equal the
single-core pipeline's (the golden corpus pins both).
"""

from __future__ import annotations

import dataclasses
import gc
from typing import List, Optional

from repro.harness.envutil import knob
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.multicore.coherence import CoherenceDirectory, CoherentHierarchy
from repro.multicore.core import CoherentCore
from repro.multicore.edm_bus import SharedEdmBus
from repro.pipeline.core import OutOfOrderCore, SimulationError
from repro.pipeline.replay import meta_for
from repro.pipeline.stats import PipelineStats


@dataclasses.dataclass
class MulticoreResult:
    """What one N-core simulation produces for the harness."""

    cores: int
    stats: PipelineStats               # merged machine view
    core_stats: List[PipelineStats]    # per-core, ascending core id
    store_visibility: List[tuple]      # merged, deterministic order
    controller: MemoryController
    coherence: Optional[CoherenceDirectory]
    bus: Optional[SharedEdmBus]


def merge_stats(core_stats: List[PipelineStats]) -> PipelineStats:
    """Machine-level stats: every counter summed, cycles = slowest core."""
    merged = PipelineStats()
    for field in dataclasses.fields(PipelineStats):
        if isinstance(getattr(merged, field.name), int):
            setattr(merged, field.name,
                    sum(getattr(stats, field.name) for stats in core_stats))
    merged.cycles = max(s.cycles for s in core_stats)
    for stats in core_stats:
        for issued, count in stats.issue_histogram.items():
            merged.issue_histogram[issued] = (
                merged.issue_histogram.get(issued, 0) + count)
    return merged


def _merge_visibility(cores: List[OutOfOrderCore]) -> List[tuple]:
    """Merged (cycle, seq, tag, addr) records in (cycle, core, seq) order.

    Persist tags are globally unique (per-core op-id offsets), so the
    consistency checker needs no core column; the core id only breaks
    same-cycle ties deterministically.
    """
    tagged = []
    for index, core in enumerate(cores):
        for entry in core.store_visibility:
            tagged.append((entry[0], index, entry[1], entry))
    tagged.sort(key=lambda item: item[:3])
    return [item[3] for item in tagged]


def _warm(hierarchy: CacheHierarchy, built) -> None:
    # Same warming as harness.runner.warm_hierarchy (not imported: the
    # runner imports this module lazily and a top-level import would cycle).
    for line in built.warm_lines(hierarchy.params.line_size):
        for cache in (hierarchy.l3, hierarchy.l2, hierarchy.l1d):
            cache.insert(line)


def _stuck(live, reason: str) -> None:
    """Raise with every live core's pipeline-state report."""
    for _, loop in live:
        loop.close()  # syncs the core's frame state for the report
    raise SimulationError("\n".join(
        core._stuck_report(reason) for core, _ in live))


def drive(cores: List[OutOfOrderCore],
          max_cycles: int = 500_000_000,
          no_retire_limit: Optional[int] = None) -> None:
    """Lockstep the cores under one clock until every core halts."""
    if no_retire_limit is None:
        no_retire_limit = cores[0].params.watchdog_no_retire
    now = 0
    last_retire = 0
    live = [(core, core.lockstep()) for core in cores]
    # Pause the cyclic GC once for the whole machine, as the single-core
    # loop does for its run.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while live:
            if now > max_cycles:
                _stuck(live, "exceeded the %d-cycle budget" % max_cycles)
            retired = 0
            target = None
            running = []
            for core, loop in live:
                core.now = now
                try:
                    core_retired, wake = next(loop)
                except StopIteration:
                    # HALT retired: progress, and the core leaves the
                    # machine.
                    retired += 1
                    target = now + 1
                    continue
                running.append((core, loop))
                retired += core_retired
                if wake is not None and (target is None or wake < target):
                    target = wake
            if retired:
                last_retire = now
            elif no_retire_limit and now - last_retire > no_retire_limit:
                _stuck(live, "no instruction retired for %d cycles "
                             "(watchdog limit %d)"
                       % (now - last_retire, no_retire_limit))
            live = running
            if not live:
                return
            if target is None:
                _stuck(live, "machine deadlock (no core progressed, "
                             "nothing scheduled)")
            now = target
    finally:
        for _, loop in live:
            loop.close()
        if gc_was_enabled:
            gc.enable()


def simulate_built(built, config, params, warm: bool = True,
                   max_cycles: int = 500_000_000) -> MulticoreResult:
    """Simulate a built workload on ``built.cores`` coherent cores."""
    cores_n = getattr(built, "cores", 1)
    controller = MemoryController(
        address_map=params.address_map,
        dram_params=params.dram,
        nvm_params=params.nvm,
    )
    if cores_n == 1:
        hierarchy = CacheHierarchy(controller, params.hierarchy)
        if warm:
            _warm(hierarchy, built)
        core = OutOfOrderCore(built.trace, hierarchy, config.policy,
                              params.core, replay=meta_for(built))
        drive([core], max_cycles=max_cycles)
        return MulticoreResult(
            cores=1,
            stats=core.stats,
            core_stats=[core.stats],
            store_visibility=list(core.store_visibility),
            controller=controller,
            coherence=None,
            bus=None,
        )
    directory = CoherenceDirectory(enabled=knob("REPRO_COHERENCE"))
    bus = SharedEdmBus()
    cores: List[CoherentCore] = []
    for core_id in range(cores_n):
        hierarchy = CoherentHierarchy(controller, params.hierarchy,
                                      directory, core_id)
        if warm:
            _warm(hierarchy, built)
        cores.append(CoherentCore(core_id, bus, built.core_traces[core_id],
                                  hierarchy, config.policy, params.core))
    drive(cores, max_cycles=max_cycles)
    core_stats = [core.stats for core in cores]
    return MulticoreResult(
        cores=cores_n,
        stats=merge_stats(core_stats),
        core_stats=core_stats,
        store_visibility=_merge_visibility(cores),
        controller=controller,
        coherence=directory,
        bus=bus,
    )
