"""The persistent-object framework facade.

This plays the role PMDK plays in the paper: workloads perform reads and
failure-atomic writes through it, and the framework transparently performs
undo logging and persistence with the fence discipline of the selected
configuration (Figure 1(b)).

Every operation does two things at once:

1. **functional execution** — the framework keeps the authoritative memory
   contents, so workloads (trees, kernels) compute real results; and
2. **trace emission** — the corresponding dynamic instructions, with
   resolved addresses and persist tags, accumulate in a
   :class:`~repro.isa.program.TraceBuilder` for the timing model.

It also produces the crash-consistency artifacts: persist-order
*obligations*, per-persist line-content *snapshots* (the NVM image the
crash injector replays), and — for workloads that declare recovery
validation with :meth:`PersistentFramework.track_writes` — each
transaction's *write set*: the ``{cell: value}`` of every store it
made, where the last store to a cell wins.  The tracked cells are the
cells ``write`` undo-logged; the write sets, restricted to them and
folded over the baseline in commit order, give the state recovery must
restore at every transaction boundary.  A commit costs the cells it
wrote, not a copy of the tracked state.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.consistency.obligations import (
    LOG_BEFORE_STORE,
    PERSIST_BEFORE_COMMIT,
    Obligation,
)
from repro.core.edk import EdkAllocator
from repro.isa.instructions import Instruction
from repro.isa.program import TraceBuilder
from repro.nvmfw import codegen
from repro.nvmfw.allocator import PersistentHeap
from repro.nvmfw.layout import DEFAULT_LAYOUT, NvmLayout
from repro.nvmfw.undo_log import UndoLog

_LINE = 64


@dataclasses.dataclass
class BuiltWorkload:
    """Everything a workload run produces for the harness."""

    trace: List[Instruction]
    obligations: List[Obligation]
    #: tag -> {word_addr: value}: functional 64B-line content at each
    #: tagged persist (program-order approximation; see DESIGN.md).
    line_snapshots: Dict[str, Dict[int, int]]
    #: txn_id -> {tracked cell: value} of every store that transaction
    #: made to a tracked cell, ``write_init`` included (the last store
    #: wins).  Folded over ``baseline_memory`` in commit order they give
    #: the state at each boundary.  Empty unless the workload called
    #: :meth:`PersistentFramework.track_writes`.
    committed_writes: List[Dict[int, int]]
    #: Final functional memory (word -> value).
    final_memory: Dict[int, int]
    #: Functional memory at the first tx_begin — the persistent baseline
    #: the crash injector replays persist events on top of.
    baseline_memory: Dict[int, int]
    layout: NvmLayout
    ops: int
    txns: int
    #: Every cell ``write`` logged, ascending: the cells recovery
    #: validation compares.  Empty when ``committed_writes`` is.
    tracked_cells: List[int] = dataclasses.field(default_factory=list)

    def warm_lines(self, line_size: int = 64) -> List[int]:
        """Cache lines of every address the workload touches.

        The paper simulates 100 000 operations, far past cold start; the
        harness installs these lines (clean) before timing so the scaled
        runs measure the same steady state.
        """
        lines = {word & ~(line_size - 1) for word in self.final_memory}
        return sorted(lines)


class PersistentFramework:
    """PMDK-like failure-atomic persistence framework."""

    def __init__(self, mode: str, layout: NvmLayout = DEFAULT_LAYOUT,
                 edk_allocator: Optional[EdkAllocator] = None):
        self.mode = mode
        self.layout = layout
        self.memory: Dict[int, int] = {}
        self.heap = PersistentHeap(layout)
        self.log = UndoLog(layout)
        self.builder = TraceBuilder()
        if edk_allocator is None:
            edk_allocator = EdkAllocator()
        self.emitter = codegen.PersistOpEmitter(
            mode, self.builder, edk_allocator)
        self.obligations: List[Obligation] = []
        self.line_snapshots: Dict[str, Dict[int, int]] = {}
        #: The open transaction's write set, then one per commit.
        self._txn_writes: Dict[int, int] = {}
        self._committed_writes: List[Dict[int, int]] = []
        #: Every cell ``write`` has logged.
        self._logged: set = set()
        self._track_writes = False
        self._op_id = 0
        self._txn_id = 0
        self._in_txn = False
        self._txn_tags: List[str] = []
        self._baseline_memory: Optional[Dict[int, int]] = None

    # --- functional memory -------------------------------------------------

    def raw_store(self, addr: int, value: int) -> None:
        """Initialization-time store: functional effect only, no trace."""
        self.memory[addr & ~7] = value & ((1 << 64) - 1)

    def raw_store_words(self, base: int, values: Sequence[int]) -> None:
        """``raw_store(base + 8 * i, values[i])`` for every ``i``, in one
        bulk update (array initialisation)."""
        base &= ~7
        mask = (1 << 64) - 1
        self.memory.update(zip(range(base, base + 8 * len(values), 8),
                               [value & mask for value in values]))

    def peek(self, addr: int) -> int:
        """Functional read without trace emission."""
        return self.memory.get(addr & ~7, 0)

    def _snapshot_line(self, addr: int) -> Dict[int, int]:
        line = addr & ~(_LINE - 1)
        return {
            word: self.memory[word]
            for word in range(line, line + _LINE, 8)
            if word in self.memory
        }

    # --- allocation ------------------------------------------------------------

    def alloc(self, size: int, align: int = 8) -> int:
        return self.heap.alloc(size, align)

    def free(self, addr: int, size: int) -> None:
        self.heap.free(addr, size)

    # --- reads ------------------------------------------------------------------

    def read(self, addr: int) -> int:
        """Framework read: emits the address materialization + load."""
        self.emitter.emit_read(addr)
        return self.peek(addr)

    # --- failure-atomic writes ----------------------------------------------------

    def write(self, addr: int, value: int) -> None:
        """Undo-logged persistent update of one 64-bit element.

        Must run inside a transaction.  Emits ``log_value`` +
        ``update_value`` with the configuration's fence discipline,
        registers the crash-consistency obligations and records the
        store in the transaction's write set.
        """
        if not self._in_txn:
            raise RuntimeError("persistent write outside a transaction")
        addr &= ~7
        op_id = self._op_id
        self._op_id += 1

        slot = self.log.reserve_slot()
        old_value = self.peek(addr)
        self.log.record(slot, addr, old_value)

        # Functional effect of the log write (STP: address then value).  The
        # target address is 8-byte aligned, so its three low bits carry the
        # transaction epoch — how recovery tells the in-flight transaction's
        # entries apart from stale ones (see repro.consistency.crash_sim).
        self.memory[slot] = addr | (self._txn_id & 7)
        self.memory[slot + 8] = old_value

        # Functional effect of the slot reservation (volatile head bump).
        head_addr = self.layout.log_head_addr
        self.memory[head_addr] = self.log.head

        # Snapshot the log line *after* the log write, the data line after
        # the data write — the content each tagged CVAP would persist.
        self.line_snapshots[codegen.log_tag(op_id)] = self._snapshot_line(slot)

        self.emitter.emit_logged_update(op_id, addr, value, slot,
                                        head_addr=head_addr)

        value &= (1 << 64) - 1
        self.memory[addr] = self._txn_writes[addr] = value
        self._logged.add(addr)
        self.line_snapshots[codegen.data_tag(op_id)] = self._snapshot_line(addr)

        self.obligations.append(Obligation(
            kind=LOG_BEFORE_STORE,
            first_tag=codegen.log_tag(op_id),
            second_tag=codegen.store_tag(op_id),
            op_id=op_id,
            txn_id=self._txn_id,
        ))
        self._txn_tags.append(codegen.log_tag(op_id))
        self._txn_tags.append(codegen.data_tag(op_id))

    def write_init(self, addr: int, value: int) -> None:
        """Unlogged persistent store to freshly allocated memory.

        PMDK does not undo-log objects allocated within the current
        transaction (an abort reclaims them wholesale), so initialization
        stores skip ``log_value``.  Call :meth:`flush_init` afterwards to
        persist the initialized lines before the transaction commits.
        """
        if not self._in_txn:
            raise RuntimeError("persistent write outside a transaction")
        addr &= ~7
        self.emitter.emit_init_store(addr, value)
        self.memory[addr] = self._txn_writes[addr] = value & ((1 << 64) - 1)

    def flush_init(self, addr: int, size: int) -> None:
        """Persist freshly initialized lines (covered by the commit fence)."""
        first = addr & ~(_LINE - 1)
        last = (addr + size - 1) & ~(_LINE - 1)
        for line in range(first, last + _LINE, _LINE):
            tag = "init:%d" % self._op_id
            self._op_id += 1
            self.emitter.emit_flush(line, tag)
            self.line_snapshots[tag] = self._snapshot_line(line)
            self._txn_tags.append(tag)

    # --- transactions ---------------------------------------------------------------

    def track_writes(self) -> None:
        """Declare that this workload's recovery is validated: the build
        then carries its tracked cells and per-transaction write sets."""
        self._track_writes = True

    def tx_begin(self) -> int:
        if self._in_txn:
            raise RuntimeError("nested transactions are not supported")
        if self._baseline_memory is None:
            self._baseline_memory = dict(self.memory)
        self._in_txn = True
        self._txn_tags = []
        self._txn_writes = {}
        return self._txn_id

    def tx_commit(self) -> None:
        if not self._in_txn:
            raise RuntimeError("commit outside a transaction")
        txn_id = self._txn_id
        commit_addr = self.layout.commit_record_addr
        self.emitter.emit_commit(txn_id, commit_addr)
        self.memory[commit_addr] = txn_id + 1
        self.line_snapshots[codegen.commit_tag(txn_id)] = (
            self._snapshot_line(commit_addr))
        for tag in self._txn_tags:
            self.obligations.append(Obligation(
                kind=PERSIST_BEFORE_COMMIT,
                first_tag=tag,
                second_tag=codegen.commit_tag(txn_id),
                op_id=-1,
                txn_id=txn_id,
            ))
        self._committed_writes.append(self._txn_writes)
        self.log.reset()
        self._txn_id += 1
        self._in_txn = False

    # --- finalization -----------------------------------------------------------------

    def write_sets(self) -> Tuple[List[int], List[Dict[int, int]]]:
        """The tracked cells, ascending, and each committed transaction's
        stores to them; both empty unless :meth:`track_writes` was called."""
        if not self._track_writes:
            return [], []
        logged = self._logged
        return sorted(logged), [
            {addr: value for addr, value in writes.items() if addr in logged}
            for writes in self._committed_writes]

    def finish(self) -> BuiltWorkload:
        """Terminate the trace and bundle the artifacts."""
        if self._in_txn:
            raise RuntimeError("finish() inside an open transaction")
        baseline = self._baseline_memory
        tracked_cells, committed_writes = self.write_sets()
        return BuiltWorkload(
            trace=self.builder.finish(),
            obligations=list(self.obligations),
            line_snapshots=dict(self.line_snapshots),
            committed_writes=committed_writes,
            final_memory=dict(self.memory),
            baseline_memory=dict(baseline if baseline is not None else self.memory),
            layout=self.layout,
            ops=self._op_id,
            txns=self._txn_id,
            tracked_cells=tracked_cells,
        )
