"""Timeline analyses reproducing Figures 3 and 8.

Figure 3 shows that with DSBs, three independent array updates execute in
four serialized *phases*, while only two are fundamentally required.
Figure 8 contrasts IQ against the ideal (WB-like) timeline on a
four-instruction EDE microprogram.

These analyses run the actual microprograms through the timing model and
extract phase/overlap structure from the recorded per-instruction
timestamps.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.harness.configs import DEFAULT_PARAMS, configuration
from repro.isa import instructions as ops
from repro.isa.program import TraceBuilder
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy, warm_hierarchy
from repro.nvmfw.framework import PersistentFramework
from repro.pipeline.core import OutOfOrderCore

_UPDATE_COUNT = 3


@dataclasses.dataclass
class InstTiming:
    seq: int
    text: str
    op_index: int            # which array update the instruction belongs to
    role: str                 # "log" or "update" half
    issue: int
    complete: int


@dataclasses.dataclass
class TimelineResult:
    """Per-instruction timings for the three-update microprogram."""

    config: str
    timings: List[InstTiming]
    total_cycles: int

    def phase_count(self) -> int:
        """Number of serialized phases à la Figure 3.

        Two halves overlap when their [issue, complete] windows intersect;
        the phase count is the length of the longest chain of
        non-overlapping, strictly ordered half-windows.
        """
        windows = self._half_windows()
        ordered = sorted(windows.values())
        phases = 0
        frontier = -1
        for start, end in ordered:
            if start > frontier:
                phases += 1
                frontier = end
        return phases

    def _half_windows(self) -> Dict[Tuple[int, str], Tuple[int, int]]:
        windows: Dict[Tuple[int, str], Tuple[int, int]] = {}
        for timing in self.timings:
            key = (timing.op_index, timing.role)
            start, end = windows.get(key, (timing.issue, timing.complete))
            windows[key] = (min(start, timing.issue),
                            max(end, timing.complete))
        return windows

    def halves_overlap(self, first: Tuple[int, str],
                       second: Tuple[int, str]) -> bool:
        windows = self._half_windows()
        a_start, a_end = windows[first]
        b_start, b_end = windows[second]
        return a_start <= b_end and b_start <= a_end


def _build_three_updates(mode: str) -> Tuple[list, list]:
    """The Figure 1(a) microprogram: three independent array updates."""
    fw = PersistentFramework(mode)
    base = fw.alloc(64 * _UPDATE_COUNT, align=64)
    for index in range(_UPDATE_COUNT):
        fw.raw_store(base + 64 * index, index)
    fw.tx_begin()
    markers = []
    for index, value in enumerate((6, 9, 42)):
        markers.append(fw.builder.marker())
        fw.write(base + 64 * index, value)
    markers.append(fw.builder.marker())
    fw.tx_commit()
    built = fw.finish()
    return built, markers


def three_update_timeline(config_name: str) -> TimelineResult:
    """Run Figure 1(a) under a configuration; extract the timeline."""
    config = configuration(config_name)
    built, markers = _build_three_updates(config.fence_mode)

    controller = MemoryController()
    hierarchy = CacheHierarchy(controller, DEFAULT_PARAMS.hierarchy)
    warm_hierarchy(hierarchy, built)
    core = OutOfOrderCore(built.trace, hierarchy, config.policy,
                          DEFAULT_PARAMS.core)

    observed: List = []
    core.on_complete = observed.append
    stats = core.run()

    timings: List[InstTiming] = []
    for dyn in observed:
        if dyn.is_barrier or dyn.inst.opcode.name.startswith("WAIT"):
            continue
        op_index = -1
        for index in range(_UPDATE_COUNT):
            if markers[index] <= dyn.seq < markers[index + 1]:
                op_index = index
                break
        if op_index < 0:
            continue
        comment = dyn.inst.comment or ""
        role = "update" if comment.startswith(("store:", "data:")) else "log"
        timings.append(InstTiming(
            seq=dyn.seq,
            text=str(dyn.inst),
            op_index=op_index,
            role=role,
            issue=dyn.issue_cycle if dyn.issue_cycle >= 0 else dyn.dispatch_cycle,
            complete=dyn.complete_cycle,
        ))
    timings.sort(key=lambda t: t.seq)
    return TimelineResult(config=config_name, timings=timings,
                          total_cycles=stats.cycles)


# ---------------------------------------------------------------------------
# Figure 8: the four-instruction EDE microprogram
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Fig8Result:
    """Completion times of the four EDE stores under IQ vs WB."""

    config: str
    complete_cycles: List[int]
    total_cycles: int


def fig8_microprogram(config_name: str) -> Fig8Result:
    """Four stores to distinct lines with dependences 1->2 and 3->4."""
    config = configuration(config_name)
    nvm_base = DEFAULT_PARAMS.address_map.nvm_base
    lines = [nvm_base + (16 << 10) + 64 * i for i in range(4)]

    builder = TraceBuilder()
    emit = builder.emit
    values = [11, 22, 33, 44]
    for index, (line, value) in enumerate(zip(lines, values)):
        emit(ops.mov_imm(2 + index, value))
        emit(ops.mov_imm(6 + index, line))
    # inst1 produces EDK#1; inst2 consumes it.  inst3 produces EDK#2;
    # inst4 consumes it.  All four are DC CVAP-backed stores; to mirror the
    # figure we use store+cvap pairs where the cvap is the producer.
    emit(ops.dc_cvap_ede(6, edk_def=1, edk_use=0, addr=lines[0], comment="s1"))
    emit(ops.store_ede(3, 7, edk_def=0, edk_use=1, addr=lines[1], comment="s2"))
    emit(ops.dc_cvap_ede(8, edk_def=2, edk_use=0, addr=lines[2], comment="s3"))
    emit(ops.store_ede(5, 9, edk_def=0, edk_use=2, addr=lines[3], comment="s4"))
    trace = builder.finish()

    controller = MemoryController()
    hierarchy = CacheHierarchy(controller, DEFAULT_PARAMS.hierarchy)
    for line in lines:
        for cache in (hierarchy.l3, hierarchy.l2, hierarchy.l1d):
            cache.insert(line)
        hierarchy.l1d.mark_dirty(line)
    core = OutOfOrderCore(trace, hierarchy, config.policy, DEFAULT_PARAMS.core)

    tagged: Dict[str, int] = {}

    def capture(dyn):
        if dyn.inst.comment:
            tagged[dyn.inst.comment] = core.now

    core.on_complete = capture
    stats = core.run()
    return Fig8Result(
        config=config_name,
        complete_cycles=[tagged[t] for t in ("s1", "s2", "s3", "s4")],
        total_cycles=stats.cycles,
    )
