"""Lockstep N-core driver: one global clock over N pipelines.

The driver owns the clock.  Each machine cycle is the earliest wake cycle
of the live cores; in it the driver steps the cores that are due or that
the shared EDM bus woke (a completion wakes higher core ids that cycle,
lower ones the next) through :meth:`~repro.pipeline.core.OutOfOrderCore.lockstep`,
in ascending core-id order — the deterministic total order underneath
every cross-core interaction.  A skipped core would only have repeated its
idle last step: on resume it charges the skipped cycles to its zero-issue
histogram bucket, as the single-core loop does, and the skipped steps'
stalls to its counters.  Both watchdogs apply to the whole machine.

At N=1 the driver runs a plain :class:`~repro.pipeline.core.OutOfOrderCore`
on a plain :class:`~repro.memory.hierarchy.CacheHierarchy` — no bus, no
coherence directory — through the same loop as
:meth:`~repro.pipeline.core.OutOfOrderCore.run`, so its results equal the
single-core pipeline's (the golden corpus pins both).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.gcpause import paused
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy, warm_hierarchy
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
    core_steps: int = 0                # lockstep resumptions ``drive`` made


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


def _stuck(live, reason: str) -> None:
    """Raise with every live core's pipeline-state report."""
    for entry in live:
        entry[2].close()  # syncs the core's frame state for the report
    raise SimulationError("\n".join(
        entry[1]._stuck_report(reason) for entry in live))


def drive(cores: List[OutOfOrderCore],
          max_cycles: int = 500_000_000,
          no_retire_limit: Optional[int] = None) -> int:
    """Lockstep the cores under one clock until every core halts; return
    the number of core steps made."""
    if no_retire_limit is None:
        no_retire_limit = cores[0].params.watchdog_no_retire
    bus = getattr(cores[0], "bus", None)
    woken = set() if bus is None else bus.woken
    now = cycle = steps = last_retire = 0
    # Per live core: [core id, core, loop, wake, machine cycle last stepped]
    live = [[getattr(core, "core_id", index), core, core.lockstep(), 0, -1]
            for index, core in enumerate(cores)]
    with paused():
        try:
            while live:
                if now > max_cycles:
                    _stuck(live, "exceeded the %d-cycle budget" % max_cycles)
                retired = 0
                target = None
                running = []
                for entry in live:
                    core_id, core, loop, wake, last = entry
                    if (wake is not None and now >= wake
                            or woken and core_id in woken):
                        woken.discard(core_id)
                        core.now = now
                        entry[4] = cycle
                        steps += 1
                        try:
                            core_retired, wake = loop.send(
                                cycle - last - 1 or None)
                        except StopIteration:
                            # HALT retired: progress; the core leaves.
                            retired += 1
                            target = now + 1
                            continue
                        entry[3] = wake
                        retired += core_retired
                    running.append(entry)
                    if wake is not None and (target is None or wake < target):
                        target = wake
                if woken:
                    # Woken by a later core's completion; it progressed, so target <= now+1.
                    for entry in running:
                        if entry[0] in woken:
                            entry[3] = now + 1
                    woken.clear()
                cycle += 1
                if retired:
                    last_retire = now
                elif no_retire_limit and now - last_retire > no_retire_limit:
                    _stuck(live, "no instruction retired for %d cycles "
                                 "(watchdog limit %d)"
                           % (now - last_retire, no_retire_limit))
                live = running
                if live and target is None:
                    _stuck(live, "machine deadlock (no core progressed, "
                                 "nothing scheduled)")
                now = target
        finally:
            for entry in live:
                entry[2].close()
    return steps


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
            warm_hierarchy(hierarchy, built)
        core = OutOfOrderCore(built.trace, hierarchy, config.policy,
                              params.core, replay=meta_for(built))
        core_steps = drive([core], max_cycles=max_cycles)
        return MulticoreResult(
            cores=1,
            stats=core.stats,
            core_stats=[core.stats],
            store_visibility=list(core.store_visibility),
            controller=controller,
            coherence=None,
            bus=None,
            core_steps=core_steps,
        )
    directory = CoherenceDirectory()
    bus = SharedEdmBus()
    cores: List[CoherentCore] = []
    for core_id in range(cores_n):
        hierarchy = CoherentHierarchy(controller, params.hierarchy,
                                      directory, core_id)
        if warm:
            warm_hierarchy(hierarchy, built)
        cores.append(CoherentCore(core_id, bus, built.core_traces[core_id],
                                  hierarchy, config.policy, params.core))
    core_steps = drive(cores, max_cycles=max_cycles)
    core_stats = [core.stats for core in cores]
    return MulticoreResult(
        cores=cores_n,
        stats=merge_stats(core_stats),
        core_stats=core_stats,
        store_visibility=_merge_visibility(cores),
        controller=controller,
        coherence=directory,
        bus=bus,
        core_steps=core_steps,
    )
