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
so the worklist (:meth:`~repro.analysis.cfg.CFG.solve`) terminates.
After the fixpoint, one reporting pass per block emits findings from the
final entry states — each diagnostic site reports at most once.

The same pass is the reaching-producer analysis the ordering checks read
(the EDM keeps only the latest producer per key, Figure 6 of the paper):
it keeps the state each consumer and wait reads, and
:meth:`KeyStateAnalysis.ordering` answers the one ordering question the
persist prover and the fence linter ask — is ``a`` ordered before ``b``
on every path?  Every "guaranteed" claim quantifies over all possible
producers: ``X`` waits on ``A`` only when **every** possible current
producer of one of ``X``'s use keys transitively waits on ``A``.  That
is sound — paths the program cannot take only add candidates that make
claims harder.
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

_WAITS = (Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS)

#: :meth:`KeyStateAnalysis.ordering` answers: the second instruction
#: transitively consumes the first's key production, or every path
#: between them crosses a full fence or a covering wait.
EDE_EDGE = "ede-edge"
SECURED_PATHS = "secured-paths"

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


class KeyStateAnalysis:
    """The key-state pass: its findings and the ordering queries on it."""

    def __init__(
        self,
        instructions: Sequence[Instruction],
        cfg: CFG,
        edm_capacity: int = NUM_EDM_ENTRIES,
    ):
        self.instructions = instructions
        self.cfg = cfg
        self.edm_capacity = edm_capacity
        self.findings: List[Finding] = []
        #: Producer sites some consumer or ``WAIT_ALL_KEYS`` may wait on.
        self.waited_on: Set[int] = set()
        #: Consumer and ``WAIT_ALL_KEYS`` site -> the key state it reads.
        self.current_at: Dict[int, State] = {}
        #: Reachable ``DSB SY``/``DMB SY`` sites.
        self.full_fence_sites: Set[int] = set()
        self.producer_sites: List[Tuple[int, int, Opcode]] = []
        #: (finding list index, overwritten producer site) — revisited at
        #: the end to downgrade overwrites a later wait re-secured.
        self.overwrite_refs: List[Tuple[int, int]] = []
        #: Orphaned producer sites some wait drained (write-buffer model).
        self.drained_orphans: Set[int] = set()
        self.loop_blocks = cfg.loop_blocks()
        self._run()

    # --- transfer -----------------------------------------------------------

    def _transfer_block(self, block_index: int, state: State, emit: bool) -> State:
        state = dict(state)
        block = self.cfg.blocks[block_index]
        in_loop = block_index in self.loop_blocks
        for site in block.sites():
            inst = self.instructions[site]
            opcode = inst.opcode

            if opcode in FULL_FENCES:
                if emit:
                    self.full_fence_sites.add(site)
                for key, records in state.items():
                    if key == ORPHANS:
                        continue
                    state[key] = frozenset(
                        r if r is ABSENT else (r[0], r[1], True) for r in records
                    )

            if not inst.is_ede:
                continue
            if emit and (inst.consumer_keys() or opcode is Opcode.WAIT_ALL_KEYS):
                self.current_at[site] = dict(state)

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
                                self.waited_on.add(record[0])
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
                                self.waited_on.add(record[0])
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
                    live = 0
                    for state_key, records in state.items():
                        if state_key != ORPHANS:
                            for record in records:
                                if record is not ABSENT and not record[1]:
                                    live += 1
                                    break
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
                    self.drained_orphans.add(orphan_site)
            else:
                kept.append((orphan_key, orphan_site))
        state[ORPHANS] = frozenset(kept)

    def _emit(self, severity: str, site: int, check: str, message: str) -> None:
        self.findings.append(Finding(severity, site, message, check))

    # --- driver -------------------------------------------------------------

    def _run(self) -> None:
        cfg = self.cfg
        in_states = cfg.solve({}, self._transfer_block, _join)
        for block in cfg.blocks:
            if block.index not in in_states:
                self._emit(
                    INFO,
                    block.start,
                    "unreachable-code",
                    "basic block at %d is unreachable from the entry" % block.start,
                )

        for site, key, opcode in self.producer_sites:
            if opcode is Opcode.WAIT_KEY:
                continue  # waits re-produce their own key by design
            if site not in self.waited_on and site not in self.drained_orphans:
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

    # --- ordering queries -----------------------------------------------------

    def _all_wait_on(self, records: FrozenSet, a_site: int, visiting: Set[int]) -> bool:
        """Whether every producer in ``records`` transitively waits on ``a``."""
        if not records or ABSENT in records:
            return False
        return all(self.waits_on(r[0], a_site, visiting) for r in records)

    def waits_on(self, x_site: int, a_site: int, _visiting: Optional[Set[int]] = None) -> bool:
        """True when executing ``x_site`` provably waits for ``a_site``.

        ``X`` waits on ``A`` when ``X`` *is* ``A``, or when for some use
        key of ``X`` every possible current producer transitively waits
        on ``A`` (a consumer cannot execute before its producer completes;
        ``JOIN``/``WAIT_KEY`` chain productions behind consumptions).
        Cycles (loop-carried chains) conservatively fail.
        """
        if x_site == a_site:
            return True
        if _visiting is None:
            _visiting = set()
        state = self.current_at.get(x_site)
        if state is None or x_site in _visiting:
            return False
        _visiting.add(x_site)
        try:
            inst = self.instructions[x_site]
            use_keys = inst.consumer_keys()
            if not use_keys and inst.opcode is Opcode.WAIT_ALL_KEYS:
                use_keys = [key for key in state if key != ORPHANS]
            return any(
                self._all_wait_on(state.get(key, _ABSENT_ONLY), a_site, _visiting)
                for key in use_keys
            )
        finally:
            _visiting.discard(x_site)

    def wait_covers(self, wait_site: int, a_site: int) -> bool:
        """True when the wait at ``wait_site`` provably waits for ``a_site``.

        Waits enforce their ordering at *retirement* against the write
        buffer, not against the EDM (:mod:`repro.pipeline.write_buffer`):
        a retiring ``WAIT_ALL_KEYS`` stalls until no older EDE instruction
        is resident, and ``WAIT_KEY (k)`` until no older EDE instruction
        touching ``k`` is.  So on any path that reaches the wait *through*
        ``a_site``, the wait covers ``a_site`` whenever ``a_site`` is an
        EDE instruction (with a matching key, for ``WAIT_KEY``) — even
        when its EDM entry was overwritten in between.  Callers must only
        query waits that lie on a path from ``a_site``.  The EDM chain
        (:meth:`waits_on`) remains as the fallback for ``JOIN``-mediated
        coverage.
        """
        wait = self.instructions[wait_site]
        target = self.instructions[a_site]
        if target.is_ede:
            if wait.opcode is Opcode.WAIT_ALL_KEYS:
                return True
            if wait.opcode is Opcode.WAIT_KEY:
                keys = (target.edk_def, target.edk_use, target.edk_use2)
                if wait.edk_use != ZERO_KEY and wait.edk_use in keys:
                    return True
        return self.waits_on(wait_site, a_site)

    def has_consumer(self, a_site: int) -> bool:
        """Whether any consumer anywhere may wait on ``a_site``."""
        return a_site in self.waited_on

    def ordering(self, a_site: int, b_site: int, ignore: Optional[int] = None) -> Optional[str]:
        """What orders ``a_site`` before ``b_site`` on every path, if anything.

        :data:`EDE_EDGE` when ``b`` transitively consumes ``a``'s key
        production; :data:`SECURED_PATHS` when every ``a -> b`` path
        crosses a full fence or a wait covering ``a``; None when some
        path carries neither.  ``ignore`` is a full-fence site to treat
        as absent (the fence linter asks whether a pair stays ordered
        without the fence under test).
        """
        state = self.current_at.get(b_site)
        if state is not None:
            for key in self.instructions[b_site].consumer_keys():
                if self._all_wait_on(state.get(key, _ABSENT_ONLY), a_site, set()):
                    return EDE_EDGE
        successor_sites = self.cfg.successor_sites
        frontier = list(successor_sites(a_site))
        visited = set(frontier)
        while frontier:
            site = frontier.pop()
            if site == b_site:
                return None
            if site != ignore:
                opcode = self.instructions[site].opcode
                if opcode in FULL_FENCES:
                    continue
                if opcode in _WAITS and self.wait_covers(site, a_site):
                    continue
            for succ in successor_sites(site):
                if succ not in visited:
                    visited.add(succ)
                    frontier.append(succ)
        return SECURED_PATHS


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
    return KeyStateAnalysis(instructions, cfg, edm_capacity).findings
