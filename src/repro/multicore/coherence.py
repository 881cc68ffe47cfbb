"""MESI-lite invalidation coherence over cache lines.

The single-core :class:`~repro.memory.hierarchy.CacheHierarchy` is private
to its pipeline.  With N cores sharing one physical memory, line copies
must be kept coherent.  Rather than carry full MESI directory state, this
model probes the *ground truth* — the other cores' cache contents — at
each access, which is exactly equivalent for timing purposes:

- **Load**: if a remote core holds the line dirty, that copy is demoted
  (cleaned in place, written back through the shared controller as an
  eviction-class write) and the load pays a demotion penalty.  Clean
  remote copies are free sharers.
- **Store / clean-to-PoP**: remote copies are invalidated level by level
  (dirty ones written back first), and the store pays an invalidation
  penalty when any remote core held the line.

Cores are probed in ascending id order, so every coherence action — and
thus every persist-log record it produces — is deterministic.  The
writebacks are untagged eviction-class controller writes, which the
crash-image reconstruction already skips.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.memory.hierarchy import CacheHierarchy, HierarchyParams

#: Cycles a load pays when a remote dirty copy must be demoted.
DEMOTE_PENALTY = 12

#: Cycles a store pays when remote copies must be invalidated.
INVALIDATE_PENALTY = 8


class CoherenceDirectory:
    """Probes and fixes up the other cores' caches on each access."""

    def __init__(self, demote_penalty: int = DEMOTE_PENALTY,
                 invalidate_penalty: int = INVALIDATE_PENALTY) -> None:
        self.demote_penalty = demote_penalty
        self.invalidate_penalty = invalidate_penalty
        #: Per core: its levels' probes (L1D first), line mask, controller.
        #: The directory keeps these rather than the hierarchy, which points
        #: back at the directory: without a reference cycle a finished
        #: machine is freed by refcount, not left to the cyclic GC.
        self._caches: Dict[int, tuple] = {}
        self._order: List[int] = []
        # Observability counters (deterministic, but not part of digests).
        self.demotions = 0
        self.invalidations = 0
        self.dirty_writebacks = 0

    def attach(self, core_id: int, hierarchy: "CoherentHierarchy") -> None:
        if core_id in self._caches:
            raise ValueError("core %d already attached" % core_id)
        # Per level, what ``Cache._locate`` reads: the probes run inline.
        probes = tuple((cache._sets, cache._line_shift, cache.num_sets)
                       for cache in hierarchy._levels)
        self._caches[core_id] = (probes, ~(hierarchy.l1d.line_size - 1),
                                 hierarchy.controller)
        self._order = sorted(self._caches)

    def on_load(self, core_id: int, addr: int, cycle: int) -> int:
        """Demote remote dirty copies of ``addr``'s line; return penalty."""
        if len(self._order) < 2:
            return 0
        penalty = 0
        for other_id in self._order:
            if other_id == core_id:
                continue
            probes, line_mask, controller = self._caches[other_id]
            was_dirty = False
            for sets, shift, num_sets in probes:
                tag, set_index = divmod(addr >> shift, num_sets)
                ways = sets[set_index]
                if ways.get(tag):
                    ways[tag] = False
                    was_dirty = True
            if was_dirty:
                self.demotions += 1
                self.dirty_writebacks += 1
                controller.write(addr & line_mask, cycle, is_eviction=True)
                penalty = self.demote_penalty
        return penalty

    def on_store(self, core_id: int, addr: int, cycle: int) -> int:
        """Invalidate remote copies of ``addr``'s line; return penalty."""
        if len(self._order) < 2:
            return 0
        penalty = 0
        for other_id in self._order:
            if other_id == core_id:
                continue
            probes, line_mask, controller = self._caches[other_id]
            present = False
            dirty = False
            for sets, shift, num_sets in probes:
                tag, set_index = divmod(addr >> shift, num_sets)
                ways = sets[set_index]
                bit = ways.pop(tag, None)
                if bit is not None:
                    present = True
                    dirty = dirty or bit
            if dirty:
                self.dirty_writebacks += 1
                controller.write(addr & line_mask, cycle, is_eviction=True)
            if present:
                self.invalidations += 1
                penalty = self.invalidate_penalty
        return penalty


class CoherentHierarchy(CacheHierarchy):
    """A per-core hierarchy that keeps its siblings coherent."""

    def __init__(self, controller, params: Optional[HierarchyParams],
                 directory: CoherenceDirectory, core_id: int) -> None:
        if params is None:
            params = HierarchyParams()
        super().__init__(controller, params)
        self.directory = directory
        self.core_id = core_id
        directory.attach(core_id, self)

    def load(self, addr: int, cycle: int) -> int:
        penalty = self.directory.on_load(self.core_id, addr, cycle)
        return super().load(addr, cycle + penalty)

    def store_commit(self, addr: int, cycle: int) -> int:
        penalty = self.directory.on_store(self.core_id, addr, cycle)
        return super().store_commit(addr, cycle + penalty)

    def clean_to_pop(self, addr: int, cycle: int, *, tag=None,
                     inst_seq=None) -> int:
        # A DC CVAP must persist the line's globally latest content, so
        # remote dirty copies are demoted (load-style) before the clean.
        penalty = self.directory.on_load(self.core_id, addr, cycle)
        return super().clean_to_pop(addr, cycle + penalty, tag=tag,
                                    inst_seq=inst_seq)
