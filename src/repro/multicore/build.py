"""Shared-memory, multi-framework build context for concurrent workloads.

A multi-core workload executes functionally at build time just like a
single-core one, but through N :class:`~repro.nvmfw.framework.
PersistentFramework` instances that share one functional memory image and
one persistent heap, while keeping per-core undo logs, commit records and
log-head words in the :mod:`repro.multicore.layout` carve-outs.  The
result is a :class:`MultiBuiltWorkload`: per-core traces for the lockstep
driver plus merged crash-consistency artifacts over the shared image.

Two invariants make per-core crash recovery sound (see
``consistency/crash_sim.py``):

- **single-writer, line-exclusive persistent cells** — each core's
  persistent data lives on cache lines no other core writes, so a line
  snapshot taken by one core never captures another core's in-flight
  persistent state (contention is expressed through *volatile* DRAM lines
  — locks, flags, hazard slots — which carry no recovery obligations);
- **per-core transaction-id offsets** (multiples of 8), so each core's
  3-bit log epochs and commit-record values decode locally exactly as on
  a single core.

EDK usage is partitioned: each core's emitter rotates through a disjoint
slice of the fifteen architectural keys (minus any workload-reserved
keys), the software discipline a shared EDM demands.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence

from repro.core.edk import NUM_KEYS
from repro.harness.envutil import knob
from repro.isa.instructions import Instruction
from repro.multicore import knobs
from repro.multicore.interleave import run_interleaved
from repro.multicore.layout import core_layout, txn_offset
from repro.nvmfw.allocator import PersistentHeap
from repro.nvmfw.framework import BuiltWorkload, PersistentFramework
from repro.nvmfw.layout import NvmLayout


class PartitionedEdkAllocator:
    """Round-robin over one core's share of the fifteen real EDKs."""

    def __init__(self, core_id: int, cores: int,
                 reserved: Sequence[int] = ()) -> None:
        reserved_set = frozenset(reserved)
        self._keys = [key for key in range(1, NUM_KEYS)
                      if key not in reserved_set
                      and (key - 1) % cores == core_id]
        if not self._keys:
            raise ValueError(
                "core %d of %d has no EDKs left after reserving %s"
                % (core_id, cores, sorted(reserved_set)))
        self._next = 0

    def allocate(self) -> int:
        key = self._keys[self._next]
        self._next = (self._next + 1) % len(self._keys)
        return key

    def reset(self) -> None:
        self._next = 0

    @property
    def capacity(self) -> int:
        return len(self._keys)


@dataclasses.dataclass
class MultiBuiltWorkload(BuiltWorkload):
    """A built N-core workload.

    The base fields describe the merged shared-memory image: ``trace`` is
    the concatenated per-core instruction stream (informational — the
    driver runs ``core_traces``), ``obligations``/``line_snapshots`` are
    the union over cores (tags are globally unique via the per-core id
    offsets), and ``committed_states`` is empty — single-core recovery
    validation cannot express concurrent commits; use the per-core lists
    with :func:`repro.consistency.crash_sim.validate_multicore`.
    """

    cores: int = 1
    core_traces: List[List[Instruction]] = dataclasses.field(
        default_factory=list)
    core_layouts: List[NvmLayout] = dataclasses.field(default_factory=list)
    core_committed_states: List[List[Dict[int, int]]] = dataclasses.field(
        default_factory=list)
    core_txn_offsets: List[int] = dataclasses.field(default_factory=list)


class MulticoreBuild:
    """N frameworks over one memory image, plus the build interleaver."""

    def __init__(self, mode: str, cores: int, scale,
                 reserved_keys: Sequence[int] = ()) -> None:
        if cores < 1:
            raise ValueError("cores must be >= 1, got %d" % cores)
        self.mode = mode
        self.cores = cores
        self.scale = scale
        self.layouts = [core_layout(core) for core in range(cores)]
        shared_memory: Dict[int, int] = {}
        shared_heap = PersistentHeap(self.layouts[0])
        self.frameworks: List[PersistentFramework] = []
        for core in range(cores):
            fw = PersistentFramework(
                mode, layout=self.layouts[core],
                edk_allocator=PartitionedEdkAllocator(
                    core, cores, reserved_keys))
            fw.memory = shared_memory
            fw.heap = shared_heap
            offset = txn_offset(core)
            fw._op_id = offset
            fw._txn_id = offset
            self.frameworks.append(fw)
        self.memory = shared_memory

    def freeze_baseline(self) -> None:
        """Snapshot the shared image as every core's persistent baseline.

        Call once, after initialization stores and before the first
        transaction on any core.
        """
        for fw in self.frameworks:
            fw._baseline_memory = dict(self.memory)

    def run(self, streams: Sequence[Sequence[Callable[[], None]]]) -> None:
        """Interleave the per-core unit streams under the env policy/seed."""
        run_interleaved(streams, knob("REPRO_INTERLEAVE"),
                        knobs.interleave_seed(self.scale.seed))

    def finish(self) -> MultiBuiltWorkload:
        """Bundle per-core traces + merged artifacts."""
        offsets = [txn_offset(core) for core in range(self.cores)]
        core_traces = []
        obligations = []
        line_snapshots: Dict[str, Dict[int, int]] = {}
        core_committed: List[List[Dict[int, int]]] = []
        merged_trace: List[Instruction] = []
        ops = 0
        txns = 0
        for core, fw in enumerate(self.frameworks):
            if fw._in_txn:
                raise RuntimeError(
                    "finish() with core %d inside an open transaction" % core)
            trace = fw.builder.finish()
            core_traces.append(trace)
            merged_trace.extend(trace[:-1])  # strip per-core HALT
            obligations.extend(fw.obligations)
            line_snapshots.update(fw.line_snapshots)
            core_committed.append(list(fw.committed_states))
            ops += fw._op_id - offsets[core]
            txns += fw._txn_id - offsets[core]
        merged_trace.append(core_traces[-1][-1])  # one terminal HALT
        baseline = self.frameworks[0]._baseline_memory
        # At N=1 the single-core recovery validator is fully sound, so the
        # merged view carries the committed states; at N>1 it cannot
        # express concurrent commits and validate_multicore must be used.
        merged_committed = list(core_committed[0]) if self.cores == 1 else []
        return MultiBuiltWorkload(
            trace=merged_trace,
            obligations=obligations,
            line_snapshots=line_snapshots,
            committed_states=merged_committed,
            final_memory=dict(self.memory),
            baseline_memory=dict(
                baseline if baseline is not None else self.memory),
            layout=self.layouts[0],
            ops=ops,
            txns=txns,
            cores=self.cores,
            core_traces=core_traces,
            core_layouts=list(self.layouts),
            core_committed_states=core_committed,
            core_txn_offsets=offsets,
        )


def per_core_rng_seed(scale_seed: int, core: int) -> int:
    """Deterministic per-core value-RNG seed, independent of interleaving."""
    return scale_seed + 1000003 * core
