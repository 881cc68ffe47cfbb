"""The write buffer, including the paper's WB enforcement hardware.

Section V-D: retired stores, cacheline writebacks and JOIN instructions
occupy write-buffer entries.  Each entry may carry ``srcID`` tags naming the
in-flight producers it must wait for.  On deposit, a CAM lookup clears tags
whose producer already left the buffer; whenever an entry completes, younger
entries holding its ID clear that tag.  Per-EDK and total counters of EDE
instructions in the buffer support ``WAIT_KEY`` / ``WAIT_ALL_KEYS``.

The buffer also provides the architectural ordering points that exist with
or without EDE:

* same-line order — two entries touching the same cache line drain in
  program order;
* ``DMB ST`` epochs — entries in a younger store-epoch wait until every
  store-class instruction of older epochs has completed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from repro.core.edk import NUM_KEYS
from repro.pipeline.dyninst import DynInst

PENDING = 0
PUSHING = 1


class WbEntry:
    """One occupied write-buffer slot."""

    __slots__ = ("dyn", "seq", "line", "src_ids", "state", "deposit_cycle",
                 "ede_keys")

    def __init__(self, dyn: DynInst, line: int, src_ids: Set[int],
                 deposit_cycle: int):
        self.dyn = dyn
        self.seq = dyn.seq
        self.line = line
        self.src_ids = src_ids
        self.state = PENDING
        self.deposit_cycle = deposit_cycle
        #: Cached EDKs (precomputed on the DynInst: deposit, removal and
        #: the WAIT counter probes all need them).
        self.ede_keys = dyn.ede_keys


class WriteBuffer:
    """Fixed-capacity, seq-ordered write buffer with srcID enforcement."""

    def __init__(self, capacity: int, line_size: int = 64):
        self.capacity = capacity
        self.line_size = line_size
        self.entries: List[WbEntry] = []
        #: Seqs of instructions currently occupying entries.
        self._resident: Set[int] = set()
        #: Reverse srcID index: producer seq -> entries carrying the tag.
        #: Lets remove() clear matching srcIDs in O(tags) instead of
        #: sweeping the whole buffer per removal.
        self._dependents: Dict[int, List[WbEntry]] = {}
        #: Per-EDK count of EDE instructions in the buffer (Section V-D).
        self.key_counters: Dict[int, int] = {k: 0 for k in range(1, NUM_KEYS)}
        #: Total EDE instructions in the buffer.
        self.total_ede = 0
        #: Entries currently in the PUSHING state (tracked so the per-cycle
        #: push stage does not rescan the buffer to count them).
        self.pushing = 0

    # --- occupancy --------------------------------------------------------

    def has_space(self) -> bool:
        return len(self.entries) < self.capacity

    def __len__(self) -> int:
        return len(self.entries)

    # --- deposit / remove -----------------------------------------------------

    def deposit(self, dyn: DynInst, cycle: int,
                enforce_src_ids: bool) -> WbEntry:
        """Allocate an entry for a retiring instruction.

        ``enforce_src_ids`` is True under the WB policy: the deposit CAMs
        for each srcID and keeps only tags whose producer is still resident
        (a producer not in the buffer has already completed).
        """
        if not self.has_space():
            raise RuntimeError("write buffer overflow")
        line = (dyn.addr & ~(self.line_size - 1)) if dyn.addr is not None else -1
        if enforce_src_ids:
            src_ids = {s for s in dyn.src_ids if s in self._resident}
        else:
            src_ids = set()
        entry = WbEntry(dyn, line, src_ids, cycle)
        self.entries.append(entry)
        self._resident.add(dyn.seq)
        if src_ids:
            dependents = self._dependents
            for producer in src_ids:
                bucket = dependents.get(producer)
                if bucket is None:
                    dependents[producer] = [entry]
                else:
                    bucket.append(entry)
        if dyn.is_ede:
            self.total_ede += 1
            for key in entry.ede_keys:
                self.key_counters[key] += 1
        return entry

    def mark_pushing(self, entry: WbEntry) -> None:
        """Transition an entry to the PUSHING state."""
        entry.state = PUSHING
        self.pushing += 1

    def remove(self, entry: WbEntry) -> None:
        """Free an entry whose push completed; clear matching srcIDs."""
        self.entries.remove(entry)
        self._resident.discard(entry.seq)
        if entry.state == PUSHING:
            self.pushing -= 1
        dyn = entry.dyn
        if dyn.is_ede:
            self.total_ede -= 1
            for key in entry.ede_keys:
                self.key_counters[key] -= 1
        seq = entry.seq
        dependents = self._dependents.pop(seq, None)
        if dependents is not None:
            for other in dependents:
                other.src_ids.discard(seq)

    # --- scheduling ----------------------------------------------------------

    def iter_eligible(self, epoch_ok: Callable[[int], bool]):
        """Lazily yield entries that may start pushing now, oldest first.

        ``epoch_ok(epoch)`` answers whether all store-class instructions of
        strictly older DMB ST epochs have completed.  Same-line order: an
        entry is blocked while an older entry for the same line is resident.
        Lazy so the per-cycle push stage (which takes at most
        ``wb_push_width`` entries) does not scan the whole buffer.
        """
        lines_seen: Set[int] = set()
        seen_add = lines_seen.add
        for entry in self.entries:  # entries are in deposit (program) order
            line = entry.line
            if line >= 0:
                blocked_by_line = line in lines_seen
                seen_add(line)
            else:
                blocked_by_line = False
            if entry.state != PENDING:
                continue
            if blocked_by_line:
                continue
            if entry.src_ids:
                continue
            if not epoch_ok(entry.dyn.store_epoch):
                # Entries are deposited in program order, so store epochs
                # are non-decreasing along the buffer and ``epoch_ok`` is
                # monotone: every later entry is epoch-blocked too.
                return
            yield entry

    def eligible_entries(self, epoch_ok: Callable[[int], bool]) -> List[WbEntry]:
        """Entries that may start pushing now, oldest first (see
        :meth:`iter_eligible`)."""
        if self.pushing == len(self.entries):
            return []
        return list(self.iter_eligible(epoch_ok))

    # --- WAIT support (Section V-D counters) --------------------------------------

    def older_ede_with_key(self, key: int, seq: int) -> bool:
        """Any EDE instruction touching ``key`` older than ``seq`` resident?

        Used by WAIT_KEY at retirement.  Because retirement is in order,
        every resident entry is older than a retiring WAIT — the seq check
        is defensive.
        """
        if self.key_counters.get(key, 0) == 0:
            return False
        return any(
            entry.seq < seq and key in entry.ede_keys
            for entry in self.entries
        )

    def older_ede_any(self, seq: int) -> bool:
        """Any EDE instruction older than ``seq`` resident (WAIT_ALL_KEYS)."""
        if self.total_ede == 0:
            return False
        return any(entry.seq < seq and entry.dyn.is_ede for entry in self.entries)
