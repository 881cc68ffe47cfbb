"""Path-sensitive key-state dataflow analysis.

A fixpoint over the CFG, so branchy and loopy EDE code (every tree
workload, every assembled Figure) is analyzed soundly.  The checks catch
the programming errors the EDE model makes possible — the analogue of
using an uninitialized register:

* **dangling-consumer** — consuming a key no live producer defines (the
  EDM misses and no ordering is enforced).
* **producer-overwrite** — a producer whose key is redefined before any
  consumer reads it; downgraded to info when a later wait still drains
  the orphaned persist from the write buffer.
* **join-no-use** — a ``JOIN`` whose use keys are both zero.
* **fence-shadow** — an execution dependence a full fence between
  producer and consumer already enforces (informational).
* **dead-key** — a produced dependence no path ever consumes (the
  annotation costs an EDM entry and orders nothing).
* **edm-pressure** — a path on which every one of the 15 EDM entries holds
  a live (unconsumed) dependence.  The architecture cannot encode a 16th
  simultaneously-live key; the next dependence on such a path must stall
  behind or overwrite an existing entry, so reaching capacity is reported
  the moment the 15th key goes live (a ``>15``-th would be unencodable).
* **unreachable-code** — a basic block no path from the entry reaches.

Abstract state: for each key, the set of *producer records* that may be
the key's live producer at this point.  A record is ``(site, consumed,
fenced)``; the distinguished :data:`ABSENT` element means "no producer on
some path".  Join is per-key set union, transfer is per-instruction, and
the whole lattice is finite (records are drawn from instruction sites),
so the worklist terminates.  After the fixpoint, one reporting pass per
block emits findings from the final entry states — each diagnostic site
reports at most once.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.findings import INFO, WARNING, Finding
from repro.core.edk import NUM_EDM_ENTRIES, ZERO_KEY
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode

#: "No producer reaches on some path" lattice element.
ABSENT = "absent"

_ABSENT_ONLY: FrozenSet = frozenset({ABSENT})

#: Pseudo-key under which *orphaned* producers accumulate: productions
#: whose EDM entry was overwritten while still pending.  The write buffer
#: still tracks them, so a later ``WAIT_KEY``/``WAIT_ALL_KEYS`` drains
#: them at retirement (see ``repro.pipeline.write_buffer``) — they are
#: not dead, and an overwrite a later wait re-secures is only stylistic.
#: Orphan records are ``(key, site)`` pairs.
ORPHANS = -1

#: Fences treated as ordering everything (``DMB ST`` architecturally does
#: not order ``DC CVAP`` and is excluded).
FULL_FENCES = (Opcode.DSB_SY, Opcode.DMB_SY)

# A producer record is (site, consumed, fenced).
Record = Tuple[int, bool, bool]
State = Dict[int, FrozenSet]


def _join(a: State, b: State) -> State:
    out: State = dict(a)
    for key, records in b.items():
        existing = out.get(key)
        if existing is None:
            out[key] = records | _ABSENT_ONLY if ABSENT not in records else records
        elif existing is not records:
            out[key] = existing | records
    for key in a:
        if key not in b:
            out[key] = out[key] | _ABSENT_ONLY
    return out


class _Analyzer:
    def __init__(
        self,
        instructions: Sequence[Instruction],
        cfg: CFG,
        edm_capacity: int,
    ):
        self.instructions = instructions
        self.cfg = cfg
        self.edm_capacity = edm_capacity
        self.findings: List[Finding] = []
        self.consumed_sites: Set[int] = set()
        self.producer_sites: List[Tuple[int, int, Opcode]] = []
        #: (finding list index, overwritten producer site) — revisited at
        #: the end to downgrade overwrites a later wait re-secured.
        self.overwrite_refs: List[Tuple[int, int]] = []
        #: Orphaned producer sites some wait drained (write-buffer model).
        self.drained_orphans: Set[int] = set()
        self.loop_blocks = cfg.loop_blocks() if cfg.blocks else frozenset()

    # --- transfer -----------------------------------------------------------

    def _transfer_block(self, block_index: int, state: State, emit: bool) -> State:
        state = dict(state)
        block = self.cfg.blocks[block_index]
        in_loop = block_index in self.loop_blocks
        for site in block.sites():
            inst = self.instructions[site]
            opcode = inst.opcode

            if opcode in FULL_FENCES:
                for key, records in state.items():
                    if key == ORPHANS:
                        continue
                    state[key] = frozenset(
                        r if r is ABSENT else (r[0], r[1], True) for r in records
                    )

            if not inst.is_ede:
                continue

            if opcode is Opcode.WAIT_ALL_KEYS:
                for key, records in state.items():
                    if key == ORPHANS:
                        continue
                    updated = set()
                    for record in records:
                        if record is ABSENT:
                            updated.add(record)
                        else:
                            updated.add((record[0], True, record[2]))
                            if emit:
                                self.consumed_sites.add(record[0])
                    state[key] = frozenset(updated)
                self._drain_orphans(state, None, emit)
                continue

            if emit and opcode is Opcode.JOIN and not inst.consumer_keys():
                self._emit(WARNING, site, "join-no-use", "JOIN with no use keys has no effect")

            for key in inst.consumer_keys():
                records = state.get(key, _ABSENT_ONLY)
                producers = [r for r in records if r is not ABSENT]
                if emit and ABSENT in records:
                    message = (
                        "consumes EDK#%d but no live producer exists "
                        "(EDM will miss; no ordering enforced)" % key
                    )
                    if producers:
                        message += " on some path"
                    self._emit(WARNING, site, "dangling-consumer", message)
                if producers:
                    if emit and all(r[2] for r in producers):
                        self._emit(
                            INFO,
                            site,
                            "fence-shadow",
                            "execution dependence on EDK#%d (producer at %d) is "
                            "already enforced by an intervening full fence"
                            % (key, min(r[0] for r in producers)),
                        )
                    updated = set()
                    for record in records:
                        if record is ABSENT:
                            updated.add(record)
                        else:
                            updated.add((record[0], True, record[2]))
                            if emit:
                                self.consumed_sites.add(record[0])
                    state[key] = frozenset(updated)

            if opcode is Opcode.WAIT_KEY:
                self._drain_orphans(state, inst.edk_use, emit)

            key = inst.edk_def
            if key != ZERO_KEY:
                self_chain = key in (inst.edk_use, inst.edk_use2)
                pending = [
                    r
                    for r in state.get(key, _ABSENT_ONLY)
                    if r is not ABSENT and not r[1]
                ]
                if not self_chain:
                    if emit:
                        for record in sorted(pending):
                            message = (
                                "EDK#%d producer at %d is overwritten before "
                                "any consumer used it" % (key, record[0])
                            )
                            if in_loop:
                                message += " (loop-carried)"
                            self._emit(WARNING, site, "producer-overwrite", message)
                            self.overwrite_refs.append(
                                (len(self.findings) - 1, record[0])
                            )
                    if pending:
                        orphans = {
                            r
                            for r in state.get(ORPHANS, frozenset())
                            if r is not ABSENT
                        }
                        orphans.update((key, r[0]) for r in pending)
                        state[ORPHANS] = frozenset(orphans)
                state[key] = frozenset({(site, False, False)})
                if emit:
                    self.producer_sites.append((site, key, opcode))
                    live = sum(
                        1
                        for state_key, records in state.items()
                        if state_key != ORPHANS
                        and any(r is not ABSENT and not r[1] for r in records)
                    )
                    if live >= self.edm_capacity:
                        self._emit(
                            WARNING,
                            site,
                            "edm-pressure",
                            "EDM pressure: %d keys may be live simultaneously "
                            "(capacity %d) — the next dependence on this path "
                            "must stall or overwrite a live entry"
                            % (live, self.edm_capacity),
                        )
        return state

    def _drain_orphans(self, state: State, key, emit: bool) -> None:
        """A retiring wait drains orphaned producers from the write buffer.

        ``key is None`` (``WAIT_ALL_KEYS``) drains every orphan; an
        integer key (``WAIT_KEY``) drains orphans of that key only.
        """
        orphans = [r for r in state.get(ORPHANS, frozenset()) if r is not ABSENT]
        if not orphans:
            return
        kept = []
        for orphan_key, orphan_site in orphans:
            if key is None or orphan_key == key:
                if emit:
                    self.consumed_sites.add(orphan_site)
                    self.drained_orphans.add(orphan_site)
            else:
                kept.append((orphan_key, orphan_site))
        state[ORPHANS] = frozenset(kept)

    def _emit(self, severity: str, site: int, check: str, message: str) -> None:
        self.findings.append(Finding(severity, site, message, check))

    # --- driver -------------------------------------------------------------

    def run(self) -> List[Finding]:
        cfg = self.cfg
        if not cfg.blocks:
            return []
        in_states: Dict[int, State] = {0: {}}
        order = {b: i for i, b in enumerate(cfg.reverse_postorder())}
        work: Set[int] = {0}
        while work:
            block_index = min(work, key=lambda b: order.get(b, b))
            work.discard(block_index)
            out = self._transfer_block(block_index, in_states[block_index], emit=False)
            for succ in cfg.blocks[block_index].successors:
                if succ < 0:
                    continue
                existing = in_states.get(succ)
                joined = out if existing is None else _join(existing, out)
                if existing is None or joined != existing:
                    in_states[succ] = joined
                    work.add(succ)

        reachable = cfg.reachable_blocks()
        for block in cfg.blocks:
            if block.index in reachable:
                self._transfer_block(block.index, in_states[block.index], emit=True)
            else:
                self._emit(
                    INFO,
                    block.start,
                    "unreachable-code",
                    "basic block at %d is unreachable from the entry" % block.start,
                )

        for site, key, opcode in self.producer_sites:
            if opcode is Opcode.WAIT_KEY:
                continue  # waits re-produce their own key by design
            if site not in self.consumed_sites:
                self._emit(
                    WARNING,
                    site,
                    "dead-key",
                    "EDK#%d produced at %d is never consumed on any path "
                    "(dead dependence)" % (key, site),
                )

        for finding_index, producer_site in self.overwrite_refs:
            if producer_site in self.drained_orphans:
                old = self.findings[finding_index]
                self.findings[finding_index] = Finding(
                    INFO,
                    old.index,
                    old.message
                    + " (EDM edge dropped; a later wait still drains "
                    "the persist from the write buffer)",
                    old.check,
                )

        self.findings.sort(key=lambda f: f.index)
        return self.findings


def analyze_key_states(
    instructions: Sequence[Instruction],
    labels: Optional[Dict[str, int]] = None,
    cfg: Optional[CFG] = None,
    edm_capacity: int = NUM_EDM_ENTRIES,
) -> List[Finding]:
    """Run the key-state checks; findings are ordered by instruction index.

    ``edm_capacity`` is the live-key count at which the EDM-pressure
    check fires.  May raise :class:`~repro.analysis.cfg.CfgError` when
    ``cfg`` is not supplied and the sequence branches to an undefined
    label.
    """
    if cfg is None:
        cfg = build_cfg(instructions, labels)
    return _Analyzer(instructions, cfg, edm_capacity).run()
