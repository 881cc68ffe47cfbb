"""The cache hierarchy: L1D, L2, L3 in front of the memory controller.

Table I: 48 KB 3-way L1D (1-cycle), 256 KB 16-way L2 (12-cycle), 1 MB 16-way
L3 (20-cycle), all with 64 B lines.  The hierarchy supports three operations
the pipeline needs:

* ``load`` — walk the levels, fill on miss, return the data-return cycle.
* ``store_commit`` — the write-buffer drain of a retired store into the
  coherent cache (write-allocate); returns the visibility cycle.
* ``clean_to_pop`` — the ``DC CVAP`` path: locate the line, clean it, and
  push it to the point of persistence; returns the persist cycle.

Dirty evictions of NVM-space lines are themselves persist events (the line
reaches the media without an explicit CVAP) — the subtle mechanism that lets
the Unsafe configuration persist data before its undo-log entry.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.memory.cache import Cache, Eviction
from repro.memory.controller import MemoryController


@dataclasses.dataclass(frozen=True)
class HierarchyParams:
    """Cache geometry and latencies from Table I (cycles at 3 GHz)."""

    line_size: int = 64
    l1i_size: int = 32 << 10
    l1i_assoc: int = 2
    l1i_latency: int = 2
    l1d_size: int = 48 << 10
    l1d_assoc: int = 3
    l1d_latency: int = 1
    l2_size: int = 256 << 10
    l2_assoc: int = 16
    l2_latency: int = 12
    l3_size: int = 1 << 20
    l3_assoc: int = 16
    l3_latency: int = 20


class CacheHierarchy:
    """Three-level data hierarchy plus the memory controller."""

    def __init__(self, controller: MemoryController,
                 params: HierarchyParams = HierarchyParams()):
        self.params = params
        self.controller = controller
        self.l1d = Cache("L1D", params.l1d_size, params.l1d_assoc,
                         params.line_size, params.l1d_latency)
        self.l2 = Cache("L2", params.l2_size, params.l2_assoc,
                        params.line_size, params.l2_latency)
        self.l3 = Cache("L3", params.l3_size, params.l3_assoc,
                        params.line_size, params.l3_latency)
        self._levels = (self.l1d, self.l2, self.l3)

    # --- eviction plumbing ----------------------------------------------------

    def _handle_eviction(self, eviction: Optional[Eviction], level: int,
                         cycle: int) -> None:
        """Push a victim down one level (or to memory from L3)."""
        if eviction is None:
            return
        if level + 1 < len(self._levels):
            below = self._levels[level + 1]
            victim = below.insert(eviction.addr, dirty=eviction.dirty)
            self._handle_eviction(victim, level + 1, cycle)
        elif eviction.dirty:
            # Dirty line leaves the hierarchy; NVM lines persist here.
            self.controller.write(eviction.addr, cycle, is_eviction=True)

    def _fill(self, addr: int, cycle: int, dirty: bool = False) -> None:
        """Install the line in every level (L3 up to L1)."""
        for level in reversed(range(len(self._levels))):
            victim = self._levels[level].insert(addr, dirty=dirty and level == 0)
            self._handle_eviction(victim, level, cycle)

    # --- pipeline-facing operations ----------------------------------------------

    def load(self, addr: int, cycle: int) -> int:
        """Return the cycle at which load data is available."""
        latency = 0
        for level, cache in enumerate(self._levels):
            latency += cache.latency
            if cache.lookup(addr):
                if level > 0:
                    self._fill(addr, cycle)
                return cycle + latency
        data_cycle = self.controller.read(addr, cycle + latency)
        self._fill(addr, cycle + latency)
        return data_cycle

    def store_commit(self, addr: int, cycle: int) -> int:
        """Drain one retired store into the coherent cache.

        Returns the cycle at which the store's value is visible to all
        processors — the completion point of ST-class producers in the
        paper's EDE definition (Section IV-B1).
        """
        latency = 0
        for level, cache in enumerate(self._levels):
            latency += cache.latency
            if cache.lookup(addr):
                if level == 0:
                    cache.mark_dirty(addr)
                else:
                    self._fill(addr, cycle, dirty=True)
                return cycle + latency
        # Write-allocate: fetch the line, then dirty it in L1.
        data_cycle = self.controller.read(addr, cycle + latency)
        self._fill(addr, cycle + latency, dirty=True)
        return data_cycle

    def clean_to_pop(self, addr: int, cycle: int, *,
                     tag: Optional[str] = None,
                     inst_seq: Optional[int] = None) -> int:
        """``DC CVAP``: clean the line to the point of persistence.

        Looks the line up (fastest level first), clears its dirty bit
        everywhere, and pushes the write to the controller.  Returns the
        persist cycle (acceptance into the ADR buffer for NVM; the write
        handoff for DRAM).  A clean or absent line still completes after the
        lookup traversal — there is nothing to push, and for determinism we
        log an (idempotent) persist event for NVM lines so that obligations
        tied to this CVAP can always be resolved.
        """
        lookup_latency = 0
        found_dirty = False
        for cache in self._levels:
            lookup_latency += cache.latency
            if cache.contains(addr):
                if cache.clean(addr):
                    found_dirty = True
                if found_dirty:
                    break
        # Clean deeper copies too (no additional latency modelled).
        for cache in self._levels:
            cache.clean(addr)
        issue_cycle = cycle + lookup_latency
        return self.controller.write(
            addr, issue_cycle, is_eviction=False, tag=tag, inst_seq=inst_seq)


def warm_hierarchy(hierarchy: CacheHierarchy, built) -> None:
    """Install a built workload's data (clean) before timing.

    The paper's runs are 100 000 operations long and therefore measure a
    warm steady state; the scaled-down runs here warm the caches explicitly
    so that cold-start NVM read misses do not dominate.  ``built`` is a
    :class:`~repro.nvmfw.framework.BuiltWorkload` (anything with
    ``warm_lines(line_size)``).
    """
    lines = built.warm_lines(hierarchy.params.line_size)
    for cache in (hierarchy.l3, hierarchy.l2, hierarchy.l1d):
        cache.fill_clean(lines)
