"""Crash injection and undo-log recovery replay.

The persist log is the total order in which lines reached the persistence
domain; a *crash point* is any prefix of it, ``0..len(persist_log)``.  At a
crash point the NVM image is the baseline plus the line snapshots of every
tagged persist in the prefix; undo recovery runs against that image, and
the recovered state must equal the state at the last committed
transaction boundary.

Recovery protocol (matching :mod:`repro.nvmfw`):

* The commit record holds ``n`` when transactions ``0..n-1`` have
  committed; transaction ``n`` may be in flight.
* Undo-log entries are 16-byte ``(addr | epoch, old_value)`` pairs, where
  ``epoch = txn_id & 7`` rides in the low bits of the 8-byte-aligned
  target address.  Recovery applies — in reverse slot order — every entry
  whose epoch matches the in-flight transaction, skipping stale entries
  from earlier epochs (EDE lets entries persist out of order, so the scan
  tolerates gaps).

Validation is one sweep: a single pass over the persist log in ascending
crash-point order, whose work at each point is proportional to what
changed rather than to the image size.  The sweep keeps

* a running image, to which each tagged record's line snapshot is
  applied in place;
* the written log-slot addresses of each layout, so recovery never scans
  the image for its log region;
* an undo overlay — recovery's restored values, kept beside the image
  rather than in a copy of it;
* per core, the expected state at its current transaction boundary:
  the baseline value of every tracked cell with the build's
  per-transaction write sets folded over it, one committed transaction
  at a time;
* per core, the *stale* cells: tracked cells whose image value differs
  from the expected state at the current boundary.  Each snapshot
  updates them cell by cell; a new boundary rebuilds them from the
  tracked cells.

The tracked cells are the cells ``write`` undo-logged anywhere in the
build (see :mod:`repro.nvmfw.framework`), so every cost above is
proportional to the cells the workload wrote, not to its data
structure.  Each tracked cell is compared at every boundary against
the last committed store to it, ``write_init`` stores included, or its
baseline value before the first.  Cells that only ``write_init`` ever stores to are not
tracked: they are fresh allocations, unreachable after recovery when
their transaction did not commit, which is why PMDK leaves them
unlogged.

At a crash point only the stale cells and the undo targets can disagree
with the expected state, so only those are compared, and mismatches are
reported in ascending address order.

Known approximations (documented in DESIGN.md): line snapshots capture
program-order content at emission, and untagged dirty evictions are not
replayed (they only ever carry content that a tagged persist also carries,
so skipping them is equivalent to crashing marginally earlier).

The three-bit epoch can alias after eight transactions for slots that are
never overwritten in between; the kernels used for recovery validation
reserve the same number of slots every transaction, which rules aliasing
out.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.memory.persist_domain import PersistLog
from repro.nvmfw.framework import BuiltWorkload
from repro.nvmfw.layout import LOG_ENTRY_BYTES, NvmLayout


def _log_slots(addrs, layout: NvmLayout) -> List[int]:
    """The slot addresses of ``layout``'s undo log among ``addrs``, sorted.

    A slot is the 16-byte-aligned first word of an entry in
    ``[log_base, log_base + log_capacity * 16)``.
    """
    low = layout.log_base
    high = low + layout.log_capacity * LOG_ENTRY_BYTES
    return sorted(addr for addr in addrs
                  if low <= addr < high and not (addr - low) % LOG_ENTRY_BYTES)


def _undo_entries(read, slots: Sequence[int], epoch: int) -> List:
    """Decode the undo entries of the in-flight transaction.

    ``read`` maps an address to its current value (0 when never written)
    and ``slots`` lists the written slot addresses in ascending order.
    The ``(addr, old_value)`` pairs come back in the order recovery
    applies them — reverse slot order, so the lowest slot's old value
    wins when two entries name one address.  Empty slots are skipped
    rather than ending the scan: EDE lets log-line persists reorder, so
    an empty slot can be a gap before a persisted later entry.
    """
    entries = []
    for slot in reversed(slots):
        tagged_addr = read(slot)
        if tagged_addr and tagged_addr & 7 == epoch:
            entries.append((tagged_addr & ~7, read(slot + 8)))
    return entries


def recover_undo(image: Dict[int, int],
                 layout: NvmLayout) -> Dict[int, int]:
    """Undo recovery for one commit-record/log region; returns a new image.

    Parameterized by layout so multi-core images — where each core has its
    own carve-out — recover core by core over disjoint regions.
    """
    def read(addr: int) -> int:
        return image.get(addr, 0)

    slots = _log_slots(image, layout)
    epoch = read(layout.commit_record_addr) & 7
    recovered = dict(image)
    recovered.update(_undo_entries(read, slots, epoch))
    return recovered


def _boundary_state(cells: Sequence[int],
                    writes: Sequence[Dict[int, int]],
                    baseline: Dict[int, int],
                    committed: int) -> Dict[int, int]:
    """Tracked state after ``committed`` transactions of one core.

    The baseline value of each tracked cell, in ``cells`` order, with
    the first ``committed`` write sets folded over it one transaction at
    a time.
    """
    state = {addr: baseline.get(addr, 0) for addr in cells}
    for txn_writes in writes[:max(committed, 0)]:
        state.update(txn_writes)
    return state


@dataclasses.dataclass
class CrashReport:
    """Outcome of recovery validation at one crash point."""

    crash_point: int
    committed_txns: int
    mismatches: List[str]

    @property
    def consistent(self) -> bool:
        return not self.mismatches


def _check_point(point: int, length: int) -> None:
    if not 0 <= point <= length:
        raise ValueError(
            "crash point %d is outside the persist log: a log of length %d "
            "has crash points 0..%d" % (point, length, length))


class _CoreSweep:
    """One core's share of a crash sweep: its undo log's written slots,
    its expected state at the current boundary and its stale cells (see
    the module docstring), kept in step with the running image."""

    def __init__(self, image: Dict[int, int], baseline: Dict[int, int],
                 layout: NvmLayout, txn_offset: int, cells: List[int],
                 writes: List[Dict[int, int]], prefix: str,
                 boundary_label: str):
        self.image = image
        self.baseline = baseline
        self.layout = layout
        self.txn_offset = txn_offset
        self.cells = cells
        self.writes = writes
        #: Mismatch-string prefix and boundary label.
        self.prefix = prefix
        self.boundary_label = boundary_label
        self.slots = _log_slots(image, layout)
        self._slot_set = set(self.slots)
        self._boundary: Optional[int] = None
        self.expected: Dict[int, int] = {}
        self.stale: set = set()

    def apply(self, snapshot: Dict[int, int]) -> None:
        """Follow ``snapshot``, just applied to the running image."""
        fresh = [addr for addr in _log_slots(snapshot, self.layout)
                 if addr not in self._slot_set]
        if fresh:
            self._slot_set.update(fresh)
            self.slots = sorted(self._slot_set)
        expected = self.expected
        for addr in snapshot:
            if addr in expected:
                if self.image[addr] == expected[addr]:
                    self.stale.discard(addr)
                else:
                    self.stale.add(addr)

    def recover(self, read, overlay: Dict[int, int]) -> None:
        """Add this core's undo entries to ``overlay``."""
        epoch = read(self.layout.commit_record_addr) & 7
        overlay.update(_undo_entries(read, self.slots, epoch))

    def compare(self, read, overlay: Dict[int, int]) -> Tuple[int, List[str]]:
        """The local committed count and the mismatches after recovery."""
        raw = read(self.layout.commit_record_addr)
        local = raw - self.txn_offset if raw else 0
        if not self.cells:
            return local, []
        boundary = max(local, 0)
        if boundary != self._boundary:
            self._enter(boundary)
        expected = self.expected
        cells = self.stale.union(expected.keys() & overlay.keys())
        bad = sorted(addr for addr in cells if read(addr) != expected[addr])
        return local, ["%saddr %#x: recovered %d, expected %d (%s %d)"
                       % (self.prefix, addr, read(addr), expected[addr],
                          self.boundary_label, local)
                       for addr in bad]

    def _enter(self, boundary: int) -> None:
        self._boundary = boundary
        self.expected = expected = _boundary_state(
            self.cells, self.writes, self.baseline, boundary)
        image_value = self.image.get
        self.stale = {addr for addr, value in expected.items()
                      if image_value(addr, 0) != value}


def _sweep(built, persist_log: PersistLog, crash_points: Sequence[int],
           core_specs: Sequence[dict]) -> List[CrashReport]:
    """Recover at every crash point in one ascending pass over the log.

    ``core_specs`` holds the :class:`_CoreSweep` arguments of each core
    after the image and baseline.  Recovery runs core by core in list
    order over the undo overlay, so a later core reads any cell an
    earlier core restored.  A core's local committed count is its commit
    record minus its transaction offset; its tracked cells are compared
    at that local boundary.  Reports come back in ``crash_points`` order,
    one per entry, duplicates included.
    """
    crash_points = list(crash_points)
    length = len(persist_log)
    for point in crash_points:
        _check_point(point, length)
    snapshots = built.line_snapshots
    image = dict(built.baseline_memory)
    overlay: Dict[int, int] = {}

    def read(addr: int) -> int:
        return overlay[addr] if addr in overlay else image.get(addr, 0)

    cores = [_CoreSweep(image, built.baseline_memory, **spec)
             for spec in core_specs]

    by_point: Dict[int, CrashReport] = {}
    applied = 0
    for point in sorted(set(crash_points)):
        for seq in range(applied, point):
            record = persist_log[seq]
            if record.tag is None:
                continue  # untagged eviction: see module docstring
            snapshot = snapshots.get(record.tag)
            if not snapshot:
                continue
            image.update(snapshot)
            for core in cores:
                core.apply(snapshot)
        applied = point

        overlay.clear()
        for core in cores:
            core.recover(read, overlay)
        mismatches: List[str] = []
        committed_total = 0
        for core in cores:
            local, core_mismatches = core.compare(read, overlay)
            committed_total += max(local, 0)
            mismatches += core_mismatches
        by_point[point] = CrashReport(
            crash_point=point,
            committed_txns=committed_total,
            mismatches=mismatches,
        )

    return [dataclasses.replace(by_point[point],
                                mismatches=list(by_point[point].mismatches))
            for point in crash_points]


class CrashInjector:
    """Replays persist prefixes and runs undo recovery."""

    def __init__(self, built: BuiltWorkload, persist_log: PersistLog):
        self.built = built
        self.persist_log = persist_log

    @property
    def supports_recovery_validation(self) -> bool:
        """Whether the workload recorded per-transaction write sets.

        The array kernels (``update``, ``swap``) declare recovery
        validation (:meth:`~repro.nvmfw.framework.PersistentFramework.
        track_writes`), so each commit records the cells it wrote and the
        sweep compares every logged cell at every boundary; the tree
        workloads (and the Section VIII kernels) do not, so for them only
        the ordering checker applies.  ``validate`` on an unsupported
        workload raises rather than vacuously passing.
        """
        return bool(self.built.committed_writes)

    # --- image reconstruction -----------------------------------------------

    def image_at(self, crash_point: int) -> Dict[int, int]:
        """NVM content after the first ``crash_point`` persist events."""
        _check_point(crash_point, len(self.persist_log))
        image = dict(self.built.baseline_memory)
        for record in self.persist_log.prefix(crash_point):
            if record.tag is None:
                continue  # untagged eviction: see module docstring
            snapshot = self.built.line_snapshots.get(record.tag)
            if snapshot:
                image.update(snapshot)
        return image

    # --- recovery ---------------------------------------------------------------

    def recover(self, image: Dict[int, int]) -> Dict[int, int]:
        """Run undo recovery on an image; return the recovered image."""
        return recover_undo(image, self.built.layout)

    # --- validation ---------------------------------------------------------------

    def expected_state(self, committed_txns: int) -> Dict[int, int]:
        """Tracked state after ``committed_txns`` transactions."""
        self._require_committed_states()
        built = self.built
        return _boundary_state(built.tracked_cells, built.committed_writes,
                               built.baseline_memory, committed_txns)

    def _require_committed_states(self) -> None:
        if not self.built.committed_writes:
            raise ValueError(
                "workload did not record committed states; check "
                "supports_recovery_validation before validating")

    def validate(self, crash_point: int) -> CrashReport:
        """Recover at one crash point; compare against the boundary state."""
        return self.validate_many([crash_point])[0]

    def validate_many(self, crash_points: Optional[Sequence[int]] = None
                      ) -> List[CrashReport]:
        """Validate a set of crash points (default: every one).

        One sweep over the persist log serves every point; reports come
        back in the order asked for.
        """
        if getattr(self.built, "cores", 1) > 1:
            raise ValueError(
                "single-core recovery validation cannot express concurrent "
                "commits; use validate_multicore for %d-core builds"
                % self.built.cores)
        self._require_committed_states()
        if crash_points is None:
            crash_points = range(len(self.persist_log) + 1)
        core = dict(layout=self.built.layout, txn_offset=0,
                    cells=self.built.tracked_cells,
                    writes=self.built.committed_writes, prefix="",
                    boundary_label="txn boundary")
        return _sweep(self.built, self.persist_log, crash_points, [core])


def validate_multicore(built, persist_log: PersistLog,
                       crash_points: Optional[Sequence[int]] = None
                       ) -> List[CrashReport]:
    """Recovery validation for N-core builds.

    The build contract (see :mod:`repro.multicore.build`) makes this a
    per-core replay of the single-core argument: persistent cells are
    single-writer and line-exclusive, commit records and undo logs live in
    disjoint per-core carve-outs, and per-core transaction ids are offset
    by multiples of 8 so each core's 3-bit log epochs decode locally.
    Recovery therefore runs undo recovery once per core layout, in core
    order, over the shared crash image, decodes each core's local
    committed count from its own commit record, and compares each core's
    tracked cells against its own write sets folded up to *its own*
    boundary.

    The report's ``committed_txns`` is the sum of local committed counts.
    """
    if not any(built.core_committed_writes):
        raise ValueError(
            "workload did not record per-core committed states; recovery "
            "validation does not apply")
    if crash_points is None:
        crash_points = range(len(persist_log) + 1)
    cores = [dict(layout=built.core_layouts[core],
                  txn_offset=built.core_txn_offsets[core],
                  cells=built.core_tracked_cells[core],
                  writes=built.core_committed_writes[core],
                  prefix="core %d " % core,
                  boundary_label="local txn boundary")
             for core in range(getattr(built, "cores", 1))]
    return _sweep(built, persist_log, crash_points, cores)
