"""The EDK calling convention (Section IX-B).

Like registers, EDKs are split into *caller-saved* and *callee-saved* keys:

* For each **caller-saved** key ``K``, the caller must insert
  ``WAIT_KEY (K)`` after a call returns and before the next consumer of
  ``K``.
* For each **callee-saved** key ``K``, the callee must either (i) insert a
  ``WAIT_KEY (K)`` before producing ``K``, or (ii) make every producer of
  ``K`` also a consumer of ``K`` — so the new producer chains behind the
  caller's (Figure 13, line 10).

This module provides the key split, a rewriter that makes an instruction
sequence convention-conformant, and a checker behind the analyzer's ``--convention`` flag.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from repro.core.edk import NUM_KEYS, ZERO_KEY
from repro.isa.instructions import Instruction, wait_key
from repro.isa.opcodes import Opcode

#: Default split mirroring the AArch64 GPR convention ratio: the low keys
#: are caller-saved (cheap, scratch), the high keys callee-saved.
CALLER_SAVED_KEYS: Tuple[int, ...] = tuple(range(1, 9))
CALLEE_SAVED_KEYS: Tuple[int, ...] = tuple(range(9, NUM_KEYS))


@dataclasses.dataclass(frozen=True)
class ConventionViolation:
    """One place where a sequence breaks the EDK calling convention."""

    index: int
    key: int
    reason: str

    def __str__(self) -> str:
        return "at %d (EDK#%d): %s" % (self.index, self.key, self.reason)


def keys_of(inst: Instruction) -> Tuple[int, ...]:
    """All non-zero keys an instruction touches (def and uses)."""
    keys = []
    for key in (inst.edk_def, inst.edk_use, inst.edk_use2):
        if key != ZERO_KEY and key not in keys:
            keys.append(key)
    return tuple(keys)


def insert_caller_waits(instructions: Sequence[Instruction]) -> List[Instruction]:
    """Rewrite a *caller* sequence to conform to the convention.

    After every call (``BL``), for each caller-saved key that is live (was
    produced before the call) and is consumed again afterwards before being
    re-produced, insert a ``WAIT_KEY`` immediately after the call.
    """
    result: List[Instruction] = []
    produced_before: set = set()
    pending_calls: List[int] = []  # indices in `result` right after a BL

    for inst in instructions:
        if inst.opcode is Opcode.BL:
            result.append(inst)
            pending_calls.append(len(result))
            continue
        consumed = [k for k in (inst.edk_use, inst.edk_use2) if k != ZERO_KEY]
        if pending_calls and consumed:
            insert_at = pending_calls[-1]
            needed = [k for k in consumed
                      if k in CALLER_SAVED_KEYS and k in produced_before]
            offset = 0
            for key in needed:
                result.insert(insert_at + offset, wait_key(key))
                offset += 1
            if needed:
                pending_calls = []
        if inst.edk_def != ZERO_KEY:
            produced_before.add(inst.edk_def)
        result.append(inst)
    return result


def check_callee(instructions: Sequence[Instruction]) -> List[ConventionViolation]:
    """Check a *callee* body for callee-saved key discipline.

    Every producer of a callee-saved key must either consume the same key
    (chaining behind the caller's producer) or be preceded by a
    ``WAIT_KEY`` for that key.
    """
    violations: List[ConventionViolation] = []
    waited: set = set()
    for index, inst in enumerate(instructions):
        if inst.opcode is Opcode.WAIT_KEY:
            waited.add(inst.edk_use)
            continue
        if inst.edk_def in CALLEE_SAVED_KEYS:
            consumes_same = inst.edk_def in (inst.edk_use, inst.edk_use2)
            if not consumes_same and inst.edk_def not in waited:
                violations.append(ConventionViolation(
                    index=index,
                    key=inst.edk_def,
                    reason="produces a callee-saved key without WAIT_KEY or "
                           "self-consumption",
                ))
    return violations


def check_caller(instructions: Sequence[Instruction]) -> List[ConventionViolation]:
    """Check a *caller* sequence: caller-saved keys produced before a call
    must not be consumed after it without an intervening WAIT_KEY or
    re-production."""
    violations: List[ConventionViolation] = []
    live_before_call: set = set()
    produced: set = set()
    crossed_call = False
    for index, inst in enumerate(instructions):
        if inst.opcode is Opcode.BL:
            live_before_call |= {k for k in produced if k in CALLER_SAVED_KEYS}
            crossed_call = True
            continue
        if inst.opcode is Opcode.WAIT_KEY:
            live_before_call.discard(inst.edk_use)
            produced.add(inst.edk_def)
            continue
        if crossed_call:
            for key in (inst.edk_use, inst.edk_use2):
                if key in live_before_call:
                    violations.append(ConventionViolation(
                        index=index,
                        key=key,
                        reason="consumes a caller-saved key across a call "
                               "without WAIT_KEY",
                    ))
        if inst.edk_def != ZERO_KEY:
            produced.add(inst.edk_def)
            live_before_call.discard(inst.edk_def)
    return violations
