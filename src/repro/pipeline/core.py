"""Cycle-level out-of-order core with EDE support.

The core is trace-driven: it consumes a dynamic instruction stream whose
memory instructions carry resolved effective addresses (produced either by
the functional machine or by the NVM framework's code generator).  Branches
are therefore perfectly predicted; an optional squash injector exercises the
recovery path (EDM checkpoint restore) that real mispredictions would take.

Pipeline structure per cycle (Table I sizes):

1. **events** — scheduled completions (FU results, memory returns, write
   buffer pushes) land.
2. **retire** — up to 3 instructions leave the ROB in order; store-class
   instructions and JOINs move to the write buffer; DSB / WAIT_KEY /
   WAIT_ALL_KEYS gate here.
3. **write buffer** — eligible entries begin pushing to the memory system;
   under the WB policy this is where execution dependences are enforced
   (srcID CAM, Section V-D).
4. **issue** — up to 8 ready instructions start executing; under the IQ
   policy the ``eDepReady`` check gates here (Section V-B1).
5. **dispatch** — up to 3 instructions enter ROB/IQ/LSQ; EDE instructions
   access the speculative EDM (Section V-A).

When no stage makes progress the clock fast-forwards to the next scheduled
event, attributing the skipped cycles to the zero-issue bucket of the
Fig. 11 histogram.

All five stages run in one loop, :meth:`OutOfOrderCore._loop`, driven by
the per-instruction replay columns of :mod:`repro.pipeline.replay`.
:meth:`OutOfOrderCore.run` runs it to HALT; :meth:`OutOfOrderCore.lockstep`
runs it one cycle per step under a clock owned by a multi-core driver.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.edm import CheckpointedEdm
from repro.core.policies import EnforcementPolicy, FENCE_POLICY
from repro.gcpause import paused
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.dyninst import (
    DynInst,
    EXEC_AGU,
    EXEC_BRANCH,
    EXEC_LOAD,
    EXEC_MUL,
    RETIRE_DSB,
    RETIRE_HALT,
    RETIRE_NORMAL,
    RETIRE_WAIT_ALL,
    RETIRE_WAIT_KEY,
)
from repro.pipeline.params import CoreParams
from repro.pipeline.replay import TraceMeta
from repro.pipeline.stats import PipelineStats
from repro.pipeline.write_buffer import PENDING, WbEntry, WriteBuffer

#: Event kinds.  An event is a ``(kind, payload)`` pair on the event wheel;
#: the payload is the DynInst, or the WbEntry of a write-buffer push.
EXECUTE_DONE = 0       # FU result ready (ALU, branch, MUL, store-class AGU)
FINISH_PUSH = 1        # a write-buffer push landed
LOAD_AGU_DONE = 2      # load address ready: forward or access the cache
LOAD_DATA_RETURN = 3   # load data arrived
WAKE = 4               # clock wakeup with no effect (DSB drain penalty)


class SimulationError(RuntimeError):
    """Raised on deadlock or runaway simulation."""


class _Stuck(Exception):
    """Internal: the loop is stuck; :meth:`OutOfOrderCore.run` adds the
    pipeline-state report once the loop has synced its frame state."""


class OutOfOrderCore:
    """The A72-like out-of-order core model."""

    # Hooks, read once when a run starts.  They are class attributes so a
    # subclass can define them as methods (no bound method stored on the
    # instance, so no reference cycle through the core); any instance can
    # still set its own.

    #: Optional observer called with each DynInst as it completes
    #: (``complete_cycle`` already set).  Completion is inlined at
    #: several sites of the run loop for speed, so instrumentation must
    #: use this hook rather than wrapping ``_mark_complete``.
    on_complete: Optional[Callable[[DynInst], None]] = None
    #: Optional hook called with each EDE instruction at dispatch, right
    #: after its local EDM decode (a multi-core machine publishes
    #: producers and links remote dependences here).
    on_ede_dispatch: Optional[Callable[[DynInst], None]] = None
    #: Optional extra retire gate for WAIT_KEY / WAIT_ALL_KEYS, asked
    #: once the local write buffer holds no matching older EDE entry;
    #: returning True keeps the WAIT at the ROB head this cycle (a
    #: ``retire_stall_wait`` cycle).
    wait_blocked: Optional[Callable[[DynInst], bool]] = None

    def __init__(self,
                 trace: Sequence[Instruction],
                 hierarchy: CacheHierarchy,
                 policy: EnforcementPolicy = FENCE_POLICY,
                 params: CoreParams = CoreParams(),
                 squash_at: Sequence[int] = (),
                 replay=None):
        """Args:
            trace: Dynamic instruction stream ending in HALT.
            hierarchy: The cache hierarchy + memory controller to run against.
            policy: Where EDE dependences are enforced (IQ / WB / FENCE).
            params: Pipeline geometry.
            squash_at: Trace indices at which to inject a pipeline squash
                the first time the front end reaches them (testing hook for
                the EDM checkpoint-recovery path).
            replay: Replay metadata.  ``None`` (default) builds a
                :class:`~repro.pipeline.replay.TraceMeta` for the trace when
                the run starts; a ready ``TraceMeta`` (e.g. from
                :func:`repro.pipeline.replay.meta_for`) reuses a shared
                prepass.
        """
        params.validate()
        self.trace = list(trace)
        if not self.trace or self.trace[-1].opcode is not Opcode.HALT:
            raise ValueError("trace must end with HALT")
        self.hierarchy = hierarchy
        self.policy = policy
        self.params = params
        self.stats = PipelineStats()
        self.edm = CheckpointedEdm()
        self.wb = WriteBuffer(params.write_buffer_entries,
                              hierarchy.params.line_size)

        self.now = 0
        self._fetch_index = 0
        self._next_seq = 0
        self._halt_dyn: Optional[DynInst] = None

        self._rob: Deque[DynInst] = deque()
        self._iq: List[DynInst] = []
        self._lq_used = 0
        self._sq_used = 0

        # Scoreboard: register -> last in-flight writer.
        self._scoreboard: Dict[int, DynInst] = {}
        self._reg_waiters: Dict[int, List[DynInst]] = {}
        self._ede_waiters: Dict[int, List[DynInst]] = {}
        #: Store seq -> loads whose forwarded data waits on that store's
        #: execution (scheduled for data return when the store executes).
        self._store_exec_waiters: Dict[int, List[DynInst]] = {}

        # In-flight completion tracking (for DSB / HALT).
        self._incomplete: Dict[int, DynInst] = {}
        self._incomplete_heap: List[int] = []

        self._active_dsbs: List[int] = []

        # DMB epochs: every DMB (ST or SY) starts a new epoch; younger
        # memory operations wait at issue, and younger store-class entries
        # in the write buffer, until the older epochs drain.  The replay
        # metadata carries each instruction's static epoch; per-epoch
        # counts of in-flight instructions live here.
        self._store_epoch_outstanding: Dict[int, int] = {}
        self._min_live_store_epoch = 0
        self._mem_epoch_outstanding: Dict[int, int] = {}
        self._min_live_mem_epoch = 0

        # Store-to-load forwarding index: word address -> in-flight stores.
        self._store_by_word: Dict[int, List[DynInst]] = {}

        # Event wheel: cycle -> [(kind, payload)], plus a heap of cycles.
        self._events: Dict[int, List[tuple]] = {}
        self._event_heap: List[int] = []

        self._squash_at: Set[int] = set(squash_at)

        if replay is not None:
            if not isinstance(replay, TraceMeta):
                raise TypeError(
                    "replay must be None or a TraceMeta, got %r" % (replay,))
            if not replay.matches(self.trace):
                raise ValueError(
                    "replay metadata does not match the trace "
                    "(%d entries vs %d instructions)"
                    % (len(replay.trace), len(self.trace)))
        self._replay = replay

        #: (cycle, seq, tag, addr) for every tagged store becoming visible —
        #: consumed by the crash-consistency checker.
        self.store_visibility: List[tuple] = []

    # ------------------------------------------------------------------
    # Completion and the store forwarding index
    # ------------------------------------------------------------------

    def _mark_complete(self, dyn: DynInst) -> None:
        """The EDE notion of completion: effects observable."""
        if dyn.completed or dyn.squashed:
            return
        dyn.completed = True
        dyn.complete_cycle = self.now
        self._incomplete.pop(dyn.seq, None)

        if dyn.is_ede:
            for key in dyn.producer_keys:
                self.edm.complete(key, dyn.seq)
            for waiter in self._ede_waiters.pop(dyn.seq, ()):
                waiter.e_deps_outstanding.discard(dyn.seq)

        if dyn.is_store_class:
            self._store_epoch_outstanding[dyn.store_epoch] -= 1
        if dyn.is_memory:
            self._mem_epoch_outstanding[dyn.mem_epoch] -= 1
        if dyn.is_store:
            self._unindex_store(dyn)
        if self.on_complete is not None:
            self.on_complete(dyn)

    def _index_store(self, dyn: DynInst) -> None:
        index = self._store_by_word
        for word in dyn.words:
            bucket = index.get(word)
            if bucket is None:
                index[word] = [dyn]
            else:
                bucket.append(dyn)

    def _unindex_store(self, dyn: DynInst) -> None:
        index = self._store_by_word
        for word in dyn.words:
            stores = index.get(word)
            if stores and dyn in stores:
                stores.remove(dyn)
                if not stores:
                    del index[word]

    def _forwarding_store(self, load: DynInst) -> Optional[DynInst]:
        """Youngest in-flight store older than ``load`` covering its word."""
        best: Optional[DynInst] = None
        index = self._store_by_word
        load_seq = load.seq
        for word in load.words:
            for store in reversed(index.get(word, ())):
                if store.seq < load_seq and not store.squashed:
                    if best is None or store.seq > best.seq:
                        best = store
                    break
        return best

    # ------------------------------------------------------------------
    # Squash injection (tests the EDM recovery path)
    # ------------------------------------------------------------------

    def _inject_squash(self) -> None:
        """Flush every dispatched-but-unretired instruction and refetch.

        Mirrors misprediction recovery: the speculative EDM is restored from
        the non-speculative copy, then repaired by replaying the EDM effects
        of the surviving (retired-but-incomplete instructions are in the
        write buffer and already reflected in the non-spec copy, so only the
        in-ROB survivors matter — and a full flush leaves none).

        The run loop calls this at dispatch with its frame state synced to
        the attributes, and reloads the state afterwards.  Events already
        scheduled for flushed instructions still fire, as no-ops.
        """
        self.stats.squashes += 1
        refetch_from = None
        for dyn in self._rob:
            dyn.squashed = True
            self._incomplete.pop(dyn.seq, None)
            if dyn.is_store_class:
                self._store_epoch_outstanding[dyn.store_epoch] -= 1
                self._sq_used -= 1
            if dyn.is_memory and not dyn.completed:
                # A completed load already left its epoch in _mark_complete.
                self._mem_epoch_outstanding[dyn.mem_epoch] -= 1
            if dyn.is_load and not dyn.executed:
                self._lq_used -= 1  # executed loads freed theirs at return
            if dyn.is_store:
                self._unindex_store(dyn)
            self._ede_waiters.pop(dyn.seq, None)
            self._reg_waiters.pop(dyn.seq, None)
            self._store_exec_waiters.pop(dyn.seq, None)
        flushed = len(self._rob)
        if flushed:
            # Refetch from the oldest flushed instruction's trace position.
            refetch_from = self._fetch_index - flushed
        self._rob.clear()
        self._iq.clear()
        self._active_dsbs[:] = [
            s for s in self._active_dsbs if s in self._incomplete]
        # Rebuild the scoreboard: no unretired writers remain after a full
        # flush, so every register is architecturally ready.
        self._scoreboard.clear()
        self.edm.squash()
        if refetch_from is not None:
            self._fetch_index = refetch_from

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 500_000_000,
            no_retire_limit: Optional[int] = None) -> PipelineStats:
        """Simulate until HALT retires; return the statistics.

        Two progress guards protect the caller from a runaway model:
        ``max_cycles`` bounds the total simulated time, and the no-retire
        watchdog (``no_retire_limit``, defaulting to
        ``params.watchdog_no_retire``; ``0`` disables) aborts when no
        instruction has retired for that many cycles — catching livelocks
        where events keep firing but the ROB head never drains, which the
        quiescence-based deadlock detector cannot see.  Both raise
        :class:`SimulationError` carrying the full pipeline-state report.
        """
        if no_retire_limit is None:
            no_retire_limit = self.params.watchdog_no_retire
        try:
            for _ in self._loop(max_cycles, no_retire_limit, False):
                pass
        except _Stuck as stuck:
            raise SimulationError(self._stuck_report(str(stuck))) from None
        return self.stats

    def lockstep(self) -> Iterator[Tuple[int, Optional[int]]]:
        """Run as one core of a lockstep machine, one cycle per step.

        The caller owns the clock.  Before each step it sets ``now`` to the
        cycle to simulate: the current cycle on the first step, and
        afterwards any cycle past the previous one and no later than the
        wake cycle that step yielded.  Each step yields ``(retired, wake)``:
        the instructions retired that cycle, and the cycle the core next
        needs — the following cycle after any progress, else its earliest
        scheduled event, else ``None`` (nothing will ever happen).  Cycles
        the caller skips count as zero-issue cycles, as in :meth:`run`.  A
        step is ``send(k)`` (``next()`` means 0): ``k`` machine steps went
        by without this core, each of which would have repeated its idle
        last step, so that step's retire and dispatch stalls are charged
        ``k`` more times.  The generator finishes in the cycle HALT
        retires, and closing it early syncs the core's attributes and
        statistics.  Watchdogs and deadlock detection are the caller's.
        """
        return self._loop(sys.maxsize, 0, True)

    def _loop(self, max_cycles: int, no_retire_limit: int,
              lockstep: bool) -> Iterator[Tuple[int, Optional[int]]]:
        """The simulator: every stage inlined into one frame.

        Dispatch is driven by the replay columns, the DMB-epoch checks
        and write-buffer eligibility scan are unrolled inline, and the
        issue histogram is accumulated in a local list flushed on exit.
        Without ``lockstep`` the loop owns the clock and runs to HALT
        without yielding; with it, each cycle ends in a yield and the
        caller picks the next cycle (see :meth:`lockstep`).  The stuck
        conditions raise :class:`_Stuck`, which :meth:`run` turns into a
        :class:`SimulationError` once the ``finally`` below has synced the
        frame state back onto the core.
        """
        meta = self._replay
        if meta is None:
            meta = TraceMeta(self.trace)
        stats = self.stats
        params = self.params
        wb = self.wb
        wb_entries = wb.entries
        hierarchy = self.hierarchy
        store_commit = hierarchy.store_commit
        clean_to_pop = hierarchy.clean_to_pop
        insts = meta.trace
        tails = meta.tails
        words_col = meta.words
        epochs = meta.epochs
        trace_len = len(insts)
        rob = self._rob
        events = self._events
        event_heap = self._event_heap
        incomplete = self._incomplete
        incomplete_heap = self._incomplete_heap
        scoreboard = self._scoreboard
        reg_waiters = self._reg_waiters
        store_epoch_outstanding = self._store_epoch_outstanding
        mem_epoch_outstanding = self._mem_epoch_outstanding
        active_dsbs = self._active_dsbs
        heappush = heapq.heappush
        heappop = heapq.heappop
        dyn_new = DynInst.__new__
        edm = self.edm
        spec_entries = edm.spec._entries
        ede_waiters = self._ede_waiters
        enforce_at_issue = self.policy.enforce_at_issue
        enforces_ede = self.policy.enforces_ede
        mark_complete = self._mark_complete
        index_store = self._index_store
        store_exec_waiters = self._store_exec_waiters
        visibility_append = self.store_visibility.append
        unindex_store = self._unindex_store
        forwarding_store = self._forwarding_store
        hier_load = hierarchy.load
        edm_complete = edm.complete
        on_complete = self.on_complete
        on_ede_dispatch = self.on_ede_dispatch
        wait_blocked = self.wait_blocked
        squash_at = self._squash_at
        enforce_wb = self.policy.enforce_at_write_buffer
        wb_capacity = wb.capacity
        wb_resident = wb._resident
        wb_dependents = wb._dependents
        wb_key_counters = wb.key_counters
        line_mask = ~(wb.line_size - 1)

        decode_width = params.decode_width
        rob_entries = params.rob_entries
        iq_entries = params.iq_entries
        lq_entries = params.load_queue_entries
        sq_entries = params.store_queue_entries
        issue_width = params.issue_width
        retire_width = params.retire_width
        int_alus = params.int_alus
        branch_units = params.branch_units
        load_ports = params.load_ports
        store_ports = params.store_ports
        agu_latency = params.agu_latency
        mul_latency = params.mul_latency
        branch_latency = params.branch_latency
        alu_latency = params.alu_latency
        dsb_penalty = params.dsb_penalty
        # The DSB drain wakeup lands at least one cycle ahead.
        dsb_wake = dsb_penalty if dsb_penalty > 0 else 1
        wb_outstanding = params.wb_outstanding
        wb_push_width = params.wb_push_width
        forward_latency = params.forward_latency

        iq = self._iq
        wb_entry_new = WbEntry.__new__
        #: Delta-1 event lane: with the default latencies (ALU/branch/AGU/
        #: forward all 1) almost every event fires on the very next cycle,
        #: so those skip the cycle-keyed dict + heap entirely and ride a
        #: double-buffered list.  Ordering stays chronological: a dict
        #: bucket for cycle ``c`` only ever holds events scheduled at
        #: cycles <= c-2, and the lane holds the ones scheduled at c-1, so
        #: draining bucket-then-lane fires events in the order they were
        #: scheduled.
        due = []
        due_next = []
        #: Without DSBs the oldest-incomplete heap is read only by the
        #: final HALT, where "all older complete" degenerates to "nothing
        #: but the HALT itself in flight" — skip maintaining the heap.
        track_incomplete = meta.has_dsb
        # Pipeline-occupancy state promoted to frame locals for the whole
        # run (the attribute round-trips were measurable at one dispatch
        # per instruction).  They are mirrored back onto the core in the
        # ``finally`` below, and around squash injection.
        iq_len = len(iq)
        rob_len = len(rob)
        lq_used = self._lq_used
        sq_used = self._sq_used
        fetch_index = self._fetch_index
        next_seq = self._next_seq
        halt_dyn = self._halt_dyn
        # Indexed by issued-count (0..issue_width); flushed into the stats
        # dict on exit.  List indexing beats dict get/set in the hot loop.
        hist = [0] * (issue_width + 1)
        cycles_total = 0
        issued_total = 0
        retired_total = 0
        dispatched_total = 0
        min_live_store = self._min_live_store_epoch
        min_live_mem = self._min_live_mem_epoch
        #: Squashes re-dispatch the flushed DMBs, so a refetched
        #: instruction's dynamic DMB epoch is its column epoch plus
        #: the barriers re-dispatched so far.
        epoch_bias = 0
        squash_progress = False
        now = self.now
        last_retire = now
        halted = False
        wb_dirty = True
        # The loop allocates heavily (DynInst, events) but forms no
        # reference cycles.
        with paused():
            try:
                while True:
                    now_next = now + 1
                    if now > max_cycles:
                        raise _Stuck("exceeded the %d-cycle budget"
                                     % max_cycles)

                    # --- events --------------------------------------------
                    # The handlers are inlined: these events fire once or
                    # twice per instruction, and handler call frames were the
                    # largest share of the run.  Events of instructions a
                    # squash flushed fire as no-ops.  A WAKE has no effect
                    # beyond counting as progress.
                    # Swap the delta-1 double buffer: events parked on
                    # ``due_next`` during the previous cycle fire now, after
                    # any dict bucket (which only holds older schedules).
                    due, due_next = due_next, due
                    if event_heap and event_heap[0] == now:
                        batch = events.pop(heappop(event_heap))
                        if due:
                            batch += due
                            del due[:]
                    else:
                        batch = due
                    if batch:
                        events_any = True
                        for kind, dyn in batch:
                            if kind == EXECUTE_DONE:
                                if dyn.squashed:
                                    continue
                                dyn.executed = True
                                dyn.execute_done_cycle = now
                                seq = dyn.seq
                                waiters = reg_waiters.pop(seq, None)
                                if waiters is not None:
                                    for waiter in waiters:
                                        waiter.regs_outstanding -= 1
                                if dyn.is_store:
                                    parked = store_exec_waiters.pop(seq, None)
                                    if parked is not None:
                                        done = now + forward_latency
                                        if done <= now_next:
                                            bucket = due_next
                                        else:
                                            bucket = events.get(done)
                                            if bucket is None:
                                                bucket = events[done] = []
                                                heappush(event_heap, done)
                                        for load in parked:
                                            bucket.append(
                                                (LOAD_DATA_RETURN, load))
                                if dyn.needs_write_buffer or dyn.completed:
                                    continue
                                dyn.completed = True
                                dyn.complete_cycle = now
                                incomplete.pop(seq, None)
                                if dyn.is_ede:
                                    for key in dyn.producer_keys:
                                        edm_complete(key, seq)
                                    for waiter in ede_waiters.pop(seq, ()):
                                        waiter.e_deps_outstanding.discard(seq)
                                if dyn.is_store_class:
                                    store_epoch_outstanding[
                                        dyn.store_epoch] -= 1
                                if dyn.is_memory:
                                    mem_epoch_outstanding[dyn.mem_epoch] -= 1
                                if dyn.is_store:
                                    unindex_store(dyn)
                                if on_complete is not None:
                                    on_complete(dyn)
                            elif kind == FINISH_PUSH:
                                entry = dyn
                                dyn = entry.dyn
                                seq = entry.seq
                                wb_dirty = True
                                wb_entries.remove(entry)
                                wb_resident.discard(seq)
                                wb.pushing -= 1
                                if dyn.is_ede:
                                    wb.total_ede -= 1
                                    for key in entry.ede_keys:
                                        wb_key_counters[key] -= 1
                                dependents = wb_dependents.pop(seq, None)
                                if dependents is not None:
                                    for other in dependents:
                                        other.src_ids.discard(seq)
                                if (dyn.is_store
                                        and dyn.inst.comment is not None):
                                    visibility_append(
                                        (now, seq, dyn.inst.comment, dyn.addr))
                                if dyn.completed:
                                    continue
                                dyn.completed = True
                                dyn.complete_cycle = now
                                incomplete.pop(seq, None)
                                if dyn.is_ede:
                                    for key in dyn.producer_keys:
                                        edm_complete(key, seq)
                                    for waiter in ede_waiters.pop(seq, ()):
                                        waiter.e_deps_outstanding.discard(seq)
                                if dyn.is_store_class:
                                    store_epoch_outstanding[
                                        dyn.store_epoch] -= 1
                                if dyn.is_memory:
                                    mem_epoch_outstanding[dyn.mem_epoch] -= 1
                                if dyn.is_store:
                                    unindex_store(dyn)
                                if on_complete is not None:
                                    on_complete(dyn)
                            elif kind == LOAD_AGU_DONE:
                                if dyn.squashed:
                                    continue
                                store = forwarding_store(dyn)
                                if store is None:
                                    done = hier_load(dyn.addr, now)
                                elif store.executed:
                                    done = now + forward_latency
                                else:
                                    # Forwarding store not executed yet: park
                                    # the load; the store's execute-done event
                                    # wakes it (see the is_store branch above).
                                    bucket = store_exec_waiters.get(store.seq)
                                    if bucket is None:
                                        store_exec_waiters[store.seq] = [dyn]
                                    else:
                                        bucket.append(dyn)
                                    continue
                                if done <= now_next:
                                    due_next.append((LOAD_DATA_RETURN, dyn))
                                else:
                                    bucket = events.get(done)
                                    if bucket is None:
                                        events[done] = [
                                            (LOAD_DATA_RETURN, dyn)]
                                        heappush(event_heap, done)
                                    else:
                                        bucket.append((LOAD_DATA_RETURN, dyn))
                            elif kind == LOAD_DATA_RETURN:
                                if dyn.squashed:
                                    continue
                                dyn.executed = True
                                dyn.execute_done_cycle = now
                                lq_used -= 1
                                seq = dyn.seq
                                waiters = reg_waiters.pop(seq, None)
                                if waiters is not None:
                                    for waiter in waiters:
                                        waiter.regs_outstanding -= 1
                                # Loads are never store-class, always memory,
                                # and only complete through this event.
                                dyn.completed = True
                                dyn.complete_cycle = now
                                incomplete.pop(seq, None)
                                if dyn.is_ede:
                                    for key in dyn.producer_keys:
                                        edm_complete(key, seq)
                                    for waiter in ede_waiters.pop(seq, ()):
                                        waiter.e_deps_outstanding.discard(seq)
                                mem_epoch_outstanding[dyn.mem_epoch] -= 1
                                if on_complete is not None:
                                    on_complete(dyn)
                        del batch[:]
                    else:
                        events_any = False

                    # --- retire --------------------------------------------
                    retired = 0
                    retire_stall = None
                    while retired < retire_width and rob:
                        dyn = rob[0]
                        rc = dyn.retire_class
                        if rc == RETIRE_NORMAL:
                            if not dyn.executed:
                                break
                            if (dyn.needs_write_buffer
                                    and len(wb_entries) >= wb_capacity):
                                stats.retire_stall_wb_full += 1
                                retire_stall = "retire_stall_wb_full"
                                break
                        elif rc == RETIRE_DSB:
                            while (incomplete_heap
                                   and incomplete_heap[0] not in incomplete):
                                heappop(incomplete_heap)
                            if (not incomplete_heap
                                    or incomplete_heap[0] >= dyn.seq):
                                if dyn.barrier_ready_cycle < 0:
                                    dyn.barrier_ready_cycle = now
                                    done = now + dsb_wake
                                    bucket = events.get(done)
                                    if bucket is None:
                                        events[done] = [(WAKE, None)]
                                        heappush(event_heap, done)
                                    else:
                                        bucket.append((WAKE, None))
                                if now < dyn.barrier_ready_cycle + dsb_penalty:
                                    stats.retire_stall_dsb += 1
                                    retire_stall = "retire_stall_dsb"
                                    break
                            else:
                                stats.retire_stall_dsb += 1
                                retire_stall = "retire_stall_dsb"
                                break
                        elif rc == RETIRE_WAIT_KEY:
                            if (wb.older_ede_with_key(dyn.inst.edk_use,
                                                      dyn.seq)
                                    or (wait_blocked is not None
                                        and wait_blocked(dyn))):
                                stats.retire_stall_wait += 1
                                retire_stall = "retire_stall_wait"
                                break
                        elif rc == RETIRE_WAIT_ALL:
                            if (wb.older_ede_any(dyn.seq)
                                    or (wait_blocked is not None
                                        and wait_blocked(dyn))):
                                stats.retire_stall_wait += 1
                                retire_stall = "retire_stall_wait"
                                break
                        else:  # RETIRE_HALT
                            if track_incomplete:
                                while (incomplete_heap
                                       and incomplete_heap[0]
                                       not in incomplete):
                                    heappop(incomplete_heap)
                                if (incomplete_heap
                                        and incomplete_heap[0] < dyn.seq):
                                    break
                            elif len(incomplete) > 1:
                                # HALT is the last dispatch, so anything else
                                # still in flight is older than it.
                                break
                        rob.popleft()
                        rob_len -= 1
                        dyn.retired = True
                        dyn.retire_cycle = now
                        retired += 1
                        if dyn.is_ede:
                            for key in dyn.producer_keys:
                                edm.retire(key, dyn.seq)
                        if dyn.needs_write_buffer:
                            sq_used -= 1
                            # Inlined wb.deposit (space was checked above),
                            # including the WbEntry constructor.
                            addr = dyn.addr
                            if enforce_wb and dyn.src_ids:
                                src_ids = {s for s in dyn.src_ids
                                           if s in wb_resident}
                            else:
                                src_ids = set()
                            entry = wb_entry_new(WbEntry)
                            entry.dyn = dyn
                            entry.seq = dyn.seq
                            entry.line = (
                                (addr & line_mask) if addr is not None else -1)
                            entry.src_ids = src_ids
                            entry.state = PENDING
                            entry.deposit_cycle = now
                            entry.ede_keys = dyn.ede_keys
                            wb_entries.append(entry)
                            wb_resident.add(dyn.seq)
                            wb_dirty = True
                            if src_ids:
                                for producer in src_ids:
                                    bucket = wb_dependents.get(producer)
                                    if bucket is None:
                                        wb_dependents[producer] = [entry]
                                    else:
                                        bucket.append(entry)
                            if dyn.is_ede:
                                wb.total_ede += 1
                                for key in entry.ede_keys:
                                    wb_key_counters[key] += 1
                        elif rc == RETIRE_NORMAL:
                            if not dyn.completed:
                                mark_complete(dyn)
                        elif rc == RETIRE_HALT:
                            mark_complete(dyn)
                            halted = True
                            break
                        else:
                            dyn.executed = True
                            dyn.execute_done_cycle = now
                            mark_complete(dyn)
                    if retired:
                        retired_total += retired
                        last_retire = now
                    elif (no_retire_limit
                          and now - last_retire > no_retire_limit):
                        raise _Stuck(
                            "no instruction retired for %d cycles "
                            "(watchdog limit %d)" % (now - last_retire,
                                                     no_retire_limit))
                    if halted:
                        hist[0] += 1
                        cycles_total += 1
                        break

                    # --- write-buffer push ---------------------------------
                    # The eligibility scan is pure (no side effects besides
                    # starting pushes), so a scan that started none stays
                    # empty until the buffer changes: skip it while clean.
                    # Deposits, push starts and push completions (removal /
                    # srcID clear / epoch drain) raise ``wb_dirty``; dispatch
                    # only ever adds younger epochs, which block more.
                    pushes = 0
                    if wb_entries and wb_dirty:
                        wb_dirty = False
                        in_flight = wb.pushing
                        if (in_flight < wb_outstanding
                                and in_flight != len(wb_entries)):
                            budget = wb_outstanding - in_flight
                            if budget > wb_push_width:
                                budget = wb_push_width
                            lines_seen = set()
                            seen_add = lines_seen.add
                            for entry in wb_entries:
                                line = entry.line
                                if line >= 0:
                                    blocked = line in lines_seen
                                    seen_add(line)
                                    if (blocked or entry.state != PENDING
                                            or entry.src_ids):
                                        continue
                                elif entry.state != PENDING or entry.src_ids:
                                    continue
                                epoch = entry.dyn.store_epoch
                                pointer = min_live_store
                                while (pointer < epoch
                                       and store_epoch_outstanding.get(
                                           pointer, 0) == 0):
                                    pointer += 1
                                min_live_store = pointer
                                if pointer < epoch:
                                    # Entries are in program order, so store
                                    # epochs are non-decreasing: every later
                                    # entry is epoch-blocked too.
                                    break
                                wb.mark_pushing(entry)
                                dyn = entry.dyn
                                if dyn.is_store:
                                    done = store_commit(dyn.addr, now_next)
                                elif dyn.is_writeback:
                                    done = clean_to_pop(
                                        dyn.addr, now_next,
                                        tag=dyn.inst.comment, inst_seq=dyn.seq)
                                else:  # JOIN
                                    done = now_next
                                if done <= now_next:
                                    due_next.append((FINISH_PUSH, entry))
                                else:
                                    bucket = events.get(done)
                                    if bucket is None:
                                        events[done] = [(FINISH_PUSH, entry)]
                                        heappush(event_heap, done)
                                    else:
                                        bucket.append((FINISH_PUSH, entry))
                                pushes += 1
                                if pushes >= budget:
                                    break
                            if pushes:
                                # Entries went PUSHING; budget-limited
                                # eligibles may push next cycle.
                                wb_dirty = True

                    # --- issue ---------------------------------------------
                    issued = 0
                    if iq:
                        if active_dsbs:
                            while (active_dsbs
                                   and active_dsbs[0] not in incomplete):
                                active_dsbs.pop(0)
                            dsb_barrier = (active_dsbs[0] if active_dsbs
                                           else None)
                        else:
                            dsb_barrier = None
                        int_free = int_alus
                        branch_free = branch_units
                        load_free = load_ports
                        store_free = store_ports
                        # ``remaining`` (the post-issue IQ) is materialized
                        # lazily on the first successful issue: a fully
                        # blocked cycle — the common case under heavy
                        # fencing — walks the IQ without allocating anything.
                        remaining = None
                        index = 0
                        for dyn in iq:
                            if issued >= issue_width:
                                break
                            if (dsb_barrier is not None
                                    and dyn.seq > dsb_barrier):
                                break
                            if dyn.regs_outstanding or dyn.e_deps_outstanding:
                                if remaining is not None:
                                    remaining.append(dyn)
                                index += 1
                                continue
                            if dyn.is_memory:
                                epoch = dyn.mem_epoch
                                pointer = min_live_mem
                                while (pointer < epoch
                                       and mem_epoch_outstanding.get(
                                           pointer, 0) == 0):
                                    pointer += 1
                                min_live_mem = pointer
                                if pointer < epoch:
                                    if remaining is not None:
                                        remaining.append(dyn)
                                    index += 1
                                    continue
                            kind = dyn.exec_kind
                            if kind == EXEC_LOAD:
                                if not load_free:
                                    if remaining is not None:
                                        remaining.append(dyn)
                                    index += 1
                                    continue
                                load_free -= 1
                                dyn.issued = True
                                dyn.issue_cycle = now
                                done = now + agu_latency
                                if done <= now_next:
                                    due_next.append((LOAD_AGU_DONE, dyn))
                                else:
                                    bucket = events.get(done)
                                    if bucket is None:
                                        events[done] = [(LOAD_AGU_DONE, dyn)]
                                        heappush(event_heap, done)
                                    else:
                                        bucket.append((LOAD_AGU_DONE, dyn))
                            else:
                                if kind == EXEC_AGU:
                                    epoch = dyn.store_epoch
                                    pointer = min_live_store
                                    while (pointer < epoch
                                           and store_epoch_outstanding.get(
                                               pointer, 0) == 0):
                                        pointer += 1
                                    min_live_store = pointer
                                    if pointer < epoch or not store_free:
                                        if remaining is not None:
                                            remaining.append(dyn)
                                        index += 1
                                        continue
                                    store_free -= 1
                                    done = now + agu_latency
                                elif kind == EXEC_BRANCH:
                                    if not branch_free:
                                        if remaining is not None:
                                            remaining.append(dyn)
                                        index += 1
                                        continue
                                    branch_free -= 1
                                    done = now + branch_latency
                                elif kind == EXEC_MUL:
                                    if not int_free:
                                        if remaining is not None:
                                            remaining.append(dyn)
                                        index += 1
                                        continue
                                    int_free -= 1
                                    done = now + mul_latency
                                else:  # EXEC_ALU
                                    if not int_free:
                                        if remaining is not None:
                                            remaining.append(dyn)
                                        index += 1
                                        continue
                                    int_free -= 1
                                    done = now + alu_latency
                                dyn.issued = True
                                dyn.issue_cycle = now
                                if done <= now_next:
                                    due_next.append((EXECUTE_DONE, dyn))
                                else:
                                    bucket = events.get(done)
                                    if bucket is None:
                                        events[done] = [(EXECUTE_DONE, dyn)]
                                        heappush(event_heap, done)
                                    else:
                                        bucket.append((EXECUTE_DONE, dyn))
                            if remaining is None:
                                remaining = iq[:index]
                            issued += 1
                            index += 1
                        if issued:
                            if index < len(iq):
                                remaining.extend(iq[index:])
                            iq = remaining
                            self._iq = remaining
                            iq_len -= issued

                    # --- dispatch ------------------------------------------
                    dispatched = 0
                    dispatch_stall = None
                    if fetch_index < trace_len and halt_dyn is None:
                        while (dispatched < decode_width
                               and fetch_index < trace_len):
                            if squash_at and fetch_index in squash_at:
                                squash_at.discard(fetch_index)
                                squashed_from = fetch_index
                                self._fetch_index = fetch_index
                                self._lq_used = lq_used
                                self._sq_used = sq_used
                                self._inject_squash()
                                fetch_index = self._fetch_index
                                lq_used = self._lq_used
                                sq_used = self._sq_used
                                rob_len = iq_len = 0
                                spec_entries = edm.spec._entries
                                epoch_bias += (epochs[squashed_from]
                                               - epochs[fetch_index])
                                squash_progress = True
                                wb_dirty = True
                                break
                            if rob_len >= rob_entries:
                                stats.dispatch_stall_rob += 1
                                dispatch_stall = "dispatch_stall_rob"
                                break
                            tail = tails[fetch_index]
                            needs_iq = tail[9]
                            if needs_iq and iq_len >= iq_entries:
                                stats.dispatch_stall_iq += 1
                                dispatch_stall = "dispatch_stall_iq"
                                break
                            is_load = tail[1]
                            if is_load and lq_used >= lq_entries:
                                stats.dispatch_stall_lsq += 1
                                dispatch_stall = "dispatch_stall_lsq"
                                break
                            is_store_class = tail[4]
                            if is_store_class and sq_used >= sq_entries:
                                stats.dispatch_stall_lsq += 1
                                dispatch_stall = "dispatch_stall_lsq"
                                break
                            seq = next_seq
                            # Fill the DynInst from the columns: the slots
                            # DynInst.__init__ sets, minus its classification
                            # work and call frame (this runs per instruction).
                            dyn = dyn_new(DynInst)
                            dyn.seq = seq
                            dyn.inst = inst = insts[fetch_index]
                            dyn.addr = inst.addr
                            dyn.words = words_col[fetch_index]
                            epoch = epochs[fetch_index]
                            (dyn.opcode,
                             dyn.is_load, dyn.is_store, dyn.is_writeback,
                             dyn.is_store_class, dyn.is_memory, dyn.is_barrier,
                             dyn.is_branch, dyn.is_ede,
                             _ign, dyn.needs_write_buffer, dyn.is_wait,
                             dyn.retire_class, dyn.size,
                             dyn.producer_keys, dyn.exec_kind, dyn.result_regs,
                             _ign, _ign, _ign, _ign, _ign, dyn.ede_keys) = tail
                            if epoch_bias:
                                epoch += epoch_bias
                            dyn.store_epoch = dyn.mem_epoch = epoch
                            dyn.regs_outstanding = 0
                            dyn.e_deps_outstanding = None
                            dyn.src_ids = ()
                            dyn.dispatch_cycle = now
                            dyn.issue_cycle = -1
                            dyn.execute_done_cycle = -1
                            dyn.retire_cycle = -1
                            dyn.complete_cycle = -1
                            dyn.issued = False
                            dyn.executed = False
                            dyn.retired = False
                            dyn.completed = False
                            dyn.squashed = False
                            dyn.barrier_ready_cycle = -1
                            next_seq += 1
                            fetch_index += 1
                            dispatched += 1
                            if tail[8]:  # is_ede: EDM decode
                                if dyn.retire_class == RETIRE_WAIT_ALL:
                                    # WAIT_ALL_KEYS produces every key so later
                                    # consumers chain behind it.
                                    for key in dyn.producer_keys:
                                        spec_entries[key] = seq
                                else:
                                    # EDM decode: look up consumer keys,
                                    # then define the producer key; keep
                                    # producers still in flight, deduped in
                                    # operand order.
                                    prods = None
                                    for key in tail[21]:  # consumer_keys
                                        p = spec_entries.get(key)
                                        if (p is not None and p in incomplete
                                                and (prods is None
                                                     or p not in prods)):
                                            if prods is None:
                                                prods = [p]
                                            else:
                                                prods.append(p)
                                    pk = dyn.producer_keys
                                    if pk:
                                        spec_entries[pk[0]] = seq
                                    if prods is not None:
                                        producers = tuple(prods)
                                        dyn.src_ids = producers
                                        if (not dyn.is_wait
                                                and (enforce_at_issue
                                                     or (is_load
                                                         and enforces_ede))):
                                            dyn.e_deps_outstanding = set(prods)
                                            for producer in prods:
                                                bucket = ede_waiters.get(
                                                    producer)
                                                if bucket is None:
                                                    ede_waiters[producer] = [dyn]
                                                else:
                                                    bucket.append(dyn)
                                if on_ede_dispatch is not None:
                                    on_ede_dispatch(dyn)
                            for reg in tail[17]:  # timing_src_regs
                                writer = scoreboard.get(reg)
                                if (writer is not None and not writer.executed
                                        and not writer.squashed):
                                    dyn.regs_outstanding += 1
                                    bucket = reg_waiters.get(writer.seq)
                                    if bucket is None:
                                        reg_waiters[writer.seq] = [dyn]
                                    else:
                                        bucket.append(dyn)
                            for reg in tail[18]:  # timing_dst_regs
                                scoreboard[reg] = dyn
                            if is_store_class:
                                store_epoch_outstanding[epoch] = (
                                    store_epoch_outstanding.get(epoch, 0) + 1)
                            if tail[5]:  # is_memory
                                mem_epoch_outstanding[epoch] = (
                                    mem_epoch_outstanding.get(epoch, 0) + 1)
                            incomplete[seq] = dyn
                            if track_incomplete:
                                heappush(incomplete_heap, seq)
                            rob.append(dyn)
                            rob_len += 1
                            if is_load:
                                lq_used += 1
                            if is_store_class:
                                sq_used += 1
                                if tail[2]:  # is_store
                                    index_store(dyn)
                            if needs_iq:
                                iq.append(dyn)
                                iq_len += 1
                            else:
                                dyn.executed = True
                                dyn.execute_done_cycle = now
                                if tail[19]:  # is_dsb
                                    active_dsbs.append(seq)
                                elif tail[20]:  # is_halt
                                    halt_dyn = dyn
                                    break
                        dispatched_total += dispatched

                    hist[issued] += 1
                    cycles_total += 1
                    issued_total += issued

                    # A cycle that progressed runs the next one (only such a
                    # cycle can have filled the delta-1 lane); otherwise the
                    # clock may jump to the next scheduled event.
                    if (retired or pushes or issued or dispatched or events_any
                            or squash_progress):
                        squash_progress = False
                        wake = now_next
                    elif event_heap:
                        wake = event_heap[0]
                    elif lockstep:
                        wake = None
                    else:
                        raise _Stuck("pipeline deadlock (no stage progressed, "
                                     "nothing scheduled)")
                    if lockstep:
                        skipped = yield retired, wake
                        if skipped:
                            # Each skipped step repeats this idle one's stalls.
                            for stall in (retire_stall, dispatch_stall):
                                if stall:
                                    setattr(stats, stall,
                                            getattr(stats, stall) + skipped)
                        wake = self.now
                    else:
                        self.now = wake
                    if wake > now_next:
                        # Fast-forward: the skipped cycles issued nothing.
                        skipped = wake - now_next
                        hist[0] += skipped
                        cycles_total += skipped
                    now = wake
            finally:
                self._fetch_index = fetch_index
                self._next_seq = next_seq
                self._lq_used = lq_used
                self._sq_used = sq_used
                self._halt_dyn = halt_dyn
                stats.retired += retired_total
                stats.dispatched += dispatched_total
                stats.issued += issued_total
                stats.cycles += cycles_total
                shist = stats.issue_histogram
                for count, cycles in enumerate(hist):
                    if cycles:
                        shist[count] = shist.get(count, 0) + cycles
                self._min_live_store_epoch = min_live_store
                self._min_live_mem_epoch = min_live_mem

    def _stuck_report(self, reason: str) -> str:
        """Rich pipeline-state dump for any stuck-simulation error."""
        head = self._rob[0] if self._rob else None
        lines = [
            "%s at cycle %d" % (reason, self.now),
            "  fetch index: %d / %d" % (self._fetch_index, len(self.trace)),
            "  ROB: %d entries, head=%r" % (len(self._rob), head),
            "  IQ: %d entries" % len(self._iq),
            "  WB: %d entries" % len(self.wb),
        ]
        if self._event_heap:
            next_cycle = self._event_heap[0]
            lines.append(
                "  event heap: %d scheduled cycles, head=cycle %d (%+d) "
                "with %d event(s)"
                % (len(self._event_heap), next_cycle, next_cycle - self.now,
                   len(self._events.get(next_cycle, ()))))
        else:
            lines.append("  event heap: empty (nothing will ever complete)")
        if self._active_dsbs:
            blocking = next((seq for seq in self._active_dsbs
                             if seq in self._incomplete), None)
            lines.append(
                "  active DSBs: seqs %s, oldest blocking=%s"
                % (list(self._active_dsbs),
                   "none" if blocking is None else "#%d" % blocking))
        else:
            lines.append("  active DSBs: none")
        if self._incomplete:
            oldest = min(self._incomplete)
            lines.append(
                "  incomplete: %d in flight, oldest #%d=%r"
                % (len(self._incomplete), oldest, self._incomplete[oldest]))
        if head is not None:
            lines.append(
                "  head state: issued=%s executed=%s regs_out=%d edeps=%s"
                % (head.issued, head.executed, head.regs_outstanding,
                   sorted(head.e_deps_outstanding or ())))
        for entry in self.wb.entries:
            lines.append("  wb entry #%d state=%d src_ids=%s line=%#x"
                         % (entry.seq, entry.state, sorted(entry.src_ids),
                            entry.line))
        return "\n".join(lines)
