"""The fence autotuner's static oracle, kept per site and updated per trial.

The oracle answers one question about a straight-line program: which
verdict does each persist obligation get, and how many warning-or-worse
key-state findings (``dead-key`` aside) does the program raise?  It
computes what :class:`~repro.analysis.persist.PersistProver` and
:func:`~repro.analysis.keystate.analyze_key_states` compute, specialized
to a single basic block, and keeps their working state per site, so a
one-site edit costs a window instead of a whole program.

**Per-site state.**  Sites keep the original trace's numbering; dropped
sites are masked, never removed.  After each site the oracle stores the
key state: for every key, its current producer site and whether a
consumer used it, plus the orphans (producers overwritten while pending,
which the write buffer still tracks).  That one record serves both
analyses: the reaching-producer dataflow reads the producer, the
key-state checks read the consumed flag and the orphans.  The key-state
``fenced`` flag feeds only ``fence-shadow``, an info finding, so the
oracle does not keep it.  Each site also keeps what it emitted: its
severe findings, the producer it overwrote, the orphans it drained and
the producers it waits on.

**A drop trial** (:meth:`StaticOracle.drop`) masks site ``s``, resumes the
pass at ``s`` from the stored entry state, and stops at the first site
whose new state equals the stored one: every later site sees the same
entry state, so it emits the same records.  Only obligations whose
``[first, second]`` interval meets that window are re-proved, because in
a branch-free program a verdict reads instructions and entry states
inside its interval only.  The one input outside it is whether any
consumer waits on the first instruction, so obligations whose first
instruction gains or loses its last consumer are re-proved too.  The two
global inputs of the key-state checks (which overwritten producers some
later wait drains, for the ``producer-overwrite`` warning-to-info
downgrade, and the severe counts) are counters updated from the window's
records.

:meth:`~StaticOracle.commit` keeps a staged drop and
:meth:`~StaticOracle.rollback` restores the committed state.  Building an
oracle runs the same pass from site 0 with nothing to converge to; the
autotuner builds one for the baseline and one per EDK key fold.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import WARNING
from repro.analysis.keystate import FULL_FENCES
from repro.analysis.persist import (
    GUARANTEED,
    INDETERMINATE,
    VIOLATED,
    build_tag_index,
)
from repro.consistency.obligations import Obligation
from repro.core.edk import NUM_EDM_ENTRIES
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.nvmfw.codegen import remap_keys

#: Verdict ranks for the no-regression rule: a candidate may keep or
#: improve an obligation's verdict, never worsen it.
VERDICT_RANK = {VIOLATED: 0, INDETERMINATE: 1, GUARANTEED: 2}

JOIN_NO_USE = "join-no-use"
DANGLING = "dangling-consumer"
OVERWRITE = "producer-overwrite"
EDM_PRESSURE = "edm-pressure"

#: Key state after a site: key -> (producer site, consumed), and the
#: orphaned ``(key, producer site)`` pairs.
KeyState = Tuple[Dict[int, Tuple[int, bool]], FrozenSet[Tuple[int, int]]]
_EMPTY: KeyState = ({}, frozenset())
_NO_KEYS = (0, 0, 0, ())

#: What a site emitted: its severe checks other than overwrites, in
#: emission order; the producer it overwrote while pending, or None; the
#: orphans it drained; the producers it waits on.
Emitted = Tuple[Tuple[str, ...], Optional[int], Tuple[int, ...], Tuple[int, ...]]

_MISSING = object()


@dataclasses.dataclass
class StaticState:
    """Verdict ranks and severe-finding counts for one program variant."""

    ranks: Dict[Tuple[str, str, str], int]
    severe: Dict[Tuple[str, str], int]
    verdict_counts: Dict[str, int]


def obligation_key(obligation: Obligation) -> Tuple[str, str, str]:
    return (obligation.kind, obligation.first_tag, obligation.second_tag)


class StaticOracle:
    """Obligation verdicts and severe key-state findings of one program.

    ``instructions`` must be straight-line: no branch, and no ``HALT``
    before the last site.  ``dropped`` names sites masked from the start;
    ``key_map`` renames keys the way :class:`~repro.nvmfw.codegen.Rewriter`
    does, without materializing the re-keyed program.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        obligations: Sequence[Obligation],
        dropped: Iterable[int] = (),
        key_map: Optional[Dict[int, int]] = None,
    ):
        last = len(instructions) - 1
        for site, inst in enumerate(instructions):
            if inst.is_branch or (inst.opcode is Opcode.HALT and site < last):
                raise ValueError(
                    "site %d: the static oracle needs straight-line code" % site)
            if inst.opcode is Opcode.WAIT_ALL_KEYS and (
                    inst.edk_def or inst.consumer_keys()):
                raise ValueError(
                    "site %d: WAIT_ALL_KEYS carries EDK operands" % site)
        self.instructions = instructions
        #: Per site: (def key, first use key, second use key, use keys).
        self._edk = []
        for inst in instructions:
            edk = remap_keys(inst, key_map)
            self._edk.append(
                edk + (tuple(key for key in edk[1:] if key),) if any(edk)
                else _NO_KEYS)
        self._active = [
            inst.is_ede and bool(
                edk[0] or edk[3]
                or inst.opcode in (Opcode.JOIN, Opcode.WAIT_ALL_KEYS))
            for inst, edk in zip(instructions, self._edk)
        ]
        #: Fences and waits: the only sites a path search stops at.
        self._ordering = [
            site for site, inst in enumerate(instructions)
            if inst.opcode in FULL_FENCES
            or inst.opcode in (Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS)
        ]
        self._dropped = bytearray(len(instructions))
        for site in dropped:
            self._dropped[site] = 1

        tag_index = build_tag_index(instructions)
        self._keys = [obligation_key(o) for o in obligations]
        #: Per obligation: its (first, second) sites, or None when a tag is
        #: missing or both resolve to one site (indeterminate either way).
        self._ends: List[Optional[Tuple[int, int]]] = []
        #: (first, second, obligation) for first < second, by first site.
        #: A second site before the first is guaranteed in every variant.
        spans = []
        self._by_first: Dict[int, List[int]] = {}
        for index, obligation in enumerate(obligations):
            a = tag_index.get(obligation.first_tag)
            b = tag_index.get(obligation.second_tag)
            self._ends.append(None if a is None or b is None or a == b
                              else (a, b))
            if a is not None and b is not None and a < b:
                spans.append((a, b, index))
                self._by_first.setdefault(a, []).append(index)
        spans.sort()
        self._spans = spans
        self._span_firsts = [span[0] for span in spans]

        self._after: List[KeyState] = [_EMPTY] * len(instructions)
        self._emitted: List[Optional[Emitted]] = [None] * len(instructions)
        self._severe = dict.fromkeys(
            (JOIN_NO_USE, DANGLING, OVERWRITE, EDM_PRESSURE), 0)
        self._overwrites: Dict[int, int] = {}
        self._drains: Dict[int, int] = {}
        self._consumers: Dict[int, int] = {}
        self._rank: List[Optional[int]] = [None] * len(obligations)
        self._counts = [0, 0, 0]  # obligations per verdict rank
        self._reproved: List[int] = []
        #: How to restore the committed state; None while building, which
        #: has no committed state to restore.
        self._undo: Optional[list] = None
        self._recompute(0, converge=False)
        self._undo = []

    # --- results --------------------------------------------------------------

    def verdict_counts(self) -> Dict[str, int]:
        return {GUARANTEED: self._counts[2], VIOLATED: self._counts[0],
                INDETERMINATE: self._counts[1]}

    def state(self) -> StaticState:
        ranks: Dict[Tuple[str, str, str], int] = {}
        for key, rank in zip(self._keys, self._rank):
            ranks[key] = rank
        severe = {(WARNING, check): self._severe[check]
                  for check in self._severe_order() if self._severe[check]}
        return StaticState(ranks, severe, self.verdict_counts())

    def judge(self, baseline: StaticState) -> Tuple[bool, str]:
        """The pruning rule: no verdict regresses against ``baseline`` and
        no severe finding class grows.

        Only the obligations the last change re-proved are compared, so
        the committed state must itself have passed.
        """
        for index in self._reproved:
            key = self._keys[index]
            if self._rank[index] < baseline.ranks[key]:
                return False, "obligation %s %s -> %s would regress" % key
        worse = [check for check, count in self._severe.items()
                 if count > baseline.severe.get((WARNING, check), 0)]
        if worse:
            if len(worse) > 1:
                worse = [c for c in self._severe_order() if c in worse]
            return False, "would introduce %s finding(s): %s" % (WARNING, worse[0])
        return True, "no obligation regresses; no new warning-or-worse finding"

    def _severe_order(self) -> List[str]:
        """Severe checks in the order their first finding appears."""
        order: List[str] = []
        for emitted in self._emitted:
            if emitted is None:
                continue
            checks, overwritten, _drained, _watched = emitted
            found = [check for check in checks if check != EDM_PRESSURE]
            if overwritten is not None and not self._drains.get(overwritten):
                found.append(OVERWRITE)
            if EDM_PRESSURE in checks:
                found.append(EDM_PRESSURE)
            order.extend(check for check in found if check not in order)
        return order

    # --- staging --------------------------------------------------------------

    def drop(self, site: int) -> None:
        """Stage the removal of ``site``; commit or roll back before the next."""
        if self._undo:
            raise RuntimeError("commit or roll back the staged drop first")
        self._set(self._dropped, site, 1)
        self._recompute(site, converge=True)

    def commit(self) -> None:
        self._undo = []

    def rollback(self) -> None:
        for table, key, old in reversed(self._undo):
            if old is _MISSING:
                del table[key]
            else:
                table[key] = old
        self._undo = []

    def _set(self, table, key, value) -> None:
        if self._undo is not None:
            old = table.get(key, _MISSING) if isinstance(table, dict) else table[key]
            self._undo.append((table, key, old))
        table[key] = value

    def _add(self, table: Dict, key, amount: int) -> None:
        self._set(table, key, table.get(key, 0) + amount)

    # --- the pass -------------------------------------------------------------

    def _recompute(self, start: int, converge: bool) -> None:
        """Re-run the pass from ``start`` and re-prove what it touched.

        With ``converge`` the pass stops at the first site whose new state
        equals the stored one; otherwise it runs to the end and every
        obligation is proved.
        """
        after, dropped, active = self._after, self._dropped, self._active
        state = after[start - 1] if start else _EMPTY
        new_after: List[KeyState] = []
        new_emitted: List[Optional[Emitted]] = []
        for site in range(start, len(after)):
            if dropped[site] or not active[site]:
                new_after.append(state)
                new_emitted.append(None)
                if site != start:
                    continue  # both passes carry their state through
            else:
                state, emitted = self._step(site, state)
                new_after.append(state)
                new_emitted.append(emitted)
            if converge and state == after[site]:
                break
        end = start + len(new_after)

        changed = [
            (old, new)
            for old, new in zip(self._emitted[start:end], new_emitted)
            if old != new
        ]
        # Producers whose overwrite warning or consumer count may change.
        orphaned, watched = set(), set()
        for pair in changed:
            for emitted in pair:
                if emitted is not None:
                    if emitted[1] is not None:
                        orphaned.add(emitted[1])
                    orphaned.update(emitted[2])
                    watched.update(emitted[3])
        warned = self._overwrite_warnings(orphaned)
        consumed = {p for p in watched if self._consumers.get(p)}
        for old, new in changed:
            for sign, emitted in ((-1, old), (1, new)):
                if emitted is None:
                    continue
                for check in emitted[0]:
                    self._add(self._severe, check, sign)
                if emitted[1] is not None:
                    self._add(self._overwrites, emitted[1], sign)
                for producer in emitted[2]:
                    self._add(self._drains, producer, sign)
                for producer in emitted[3]:
                    self._add(self._consumers, producer, sign)
        self._add(self._severe, OVERWRITE,
                  self._overwrite_warnings(orphaned) - warned)
        for table, new in ((after, new_after), (self._emitted, new_emitted)):
            self._set(table, slice(start, end), new)

        if converge:
            last = bisect.bisect_right(self._span_firsts, end - 1)
            reprove = {index for _a, b, index in self._spans[:last] if b >= start}
            for producer in watched:
                if bool(self._consumers.get(producer)) != (producer in consumed):
                    reprove.update(self._by_first.get(producer, ()))
            self._reproved = sorted(reprove)
        else:
            self._reproved = list(range(len(self._keys)))
        for index in self._reproved:
            old_rank, rank = self._rank[index], self._prove(index)
            if rank != old_rank:
                self._set(self._rank, index, rank)
                if old_rank is not None:
                    self._set(self._counts, old_rank, self._counts[old_rank] - 1)
                self._set(self._counts, rank, self._counts[rank] + 1)

    def _overwrite_warnings(self, producers) -> int:
        """Overwrites of ``producers`` that no wait drains stay warnings."""
        return sum(self._overwrites.get(p, 0) for p in producers
                   if not self._drains.get(p))

    def _step(self, site: int, state: KeyState) -> Tuple[KeyState, Optional[Emitted]]:
        """One EDE instruction's effect on the key state, and what it emits."""
        records, orphans = state
        opcode = self.instructions[site].opcode
        defined, use, use2, keys = self._edk[site]
        if opcode is Opcode.WAIT_ALL_KEYS:
            emitted = ((), None, tuple(sorted(p for _k, p in orphans)),
                       tuple(sorted({p for p, _used in records.values()})))
            records = {key: (p, True) for key, (p, _used) in records.items()}
            return (records, frozenset()), emitted

        checks: List[str] = []
        if opcode is Opcode.JOIN and not keys:
            checks.append(JOIN_NO_USE)
        watched: List[int] = []
        owned = False
        for key in keys:
            record = records.get(key)
            if record is None:
                checks.append(DANGLING)
                continue
            producer, used = record
            if producer not in watched:
                watched.append(producer)
            if not used:
                if not owned:
                    records, owned = dict(records), True
                records[key] = (producer, True)

        drained: Tuple[int, ...] = ()
        if opcode is Opcode.WAIT_KEY and orphans:
            drained = tuple(sorted(p for k, p in orphans if k == use))
            if drained:
                orphans = frozenset(o for o in orphans if o[0] != use)

        overwritten = None
        if defined:
            record = records.get(defined)
            if (record is not None and not record[1]
                    and defined != use and defined != use2):
                overwritten = record[0]
                orphans = orphans | {(defined, overwritten)}
            if not owned:
                records = dict(records)
            records[defined] = (site, False)
            live = sum(1 for _p, used in records.values() if not used)
            if live >= NUM_EDM_ENTRIES:
                checks.append(EDM_PRESSURE)

        if checks or overwritten is not None or drained or watched:
            return (records, orphans), (tuple(checks), overwritten, drained,
                                        tuple(watched))
        return (records, orphans), None

    # --- the prover -----------------------------------------------------------

    def _prove(self, index: int) -> int:
        """The verdict rank of one obligation in the current variant."""
        ends = self._ends[index]
        if ends is None:
            return VERDICT_RANK[INDETERMINATE]
        a, b = ends
        if b < a or self._consumes_chain(b, a) or not self._unsecured(a, b):
            return VERDICT_RANK[GUARANTEED]
        if self._edk[a][0] and self._consumers.get(a):
            return VERDICT_RANK[INDETERMINATE]
        return VERDICT_RANK[VIOLATED]

    def _consumes_chain(self, b: int, a: int) -> bool:
        """Whether ``b`` transitively consumes ``a``'s key production."""
        records = self._after[b - 1][0]
        for key in self._edk[b][3]:
            record = records.get(key)
            if record is not None and self._waits_on(record[0], a):
                return True
        return False

    def _waits_on(self, x: int, a: int) -> bool:
        """Whether executing ``x`` provably waits for ``a`` (EDM chain)."""
        if x == a:
            return True
        if x < a:
            return False  # producers lie before their consumers
        records = self._after[x - 1][0]
        keys = self._edk[x][3]
        if not keys:
            if self.instructions[x].opcode is not Opcode.WAIT_ALL_KEYS:
                return False
            keys = tuple(records)
        for key in keys:
            record = records.get(key)
            if record is not None and self._waits_on(record[0], a):
                return True
        return False

    def _unsecured(self, a: int, b: int) -> bool:
        """Whether no live fence or covering wait lies between ``a`` and ``b``."""
        order, dropped = self._ordering, self._dropped
        for position in range(bisect.bisect_right(order, a), len(order)):
            site = order[position]
            if site >= b:
                break
            if dropped[site]:
                continue
            opcode = self.instructions[site].opcode
            if opcode in FULL_FENCES:
                return False
            wait_key = self._edk[site][1]
            if self.instructions[a].is_ede and (
                opcode is Opcode.WAIT_ALL_KEYS
                or (wait_key and wait_key in self._edk[a][:3])
            ):
                return False
            if self._waits_on(site, a):
                return False
        return True
