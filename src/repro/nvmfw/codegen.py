"""Per-configuration persist-operation code generation.

This is the framework code of Figures 2 and 7, expressed as an instruction
emitter with one *fence mode* per Table III configuration:

===========  ==================================================places=======
mode         per-update ordering                        commit ordering
===========  ================================================================
``dsb``      ``DC CVAP; DSB SY`` after the log write    ``DSB SY`` both sides
``dmb_st``   ``DC CVAP; DMB ST`` (SFENCE-like)          ``DMB ST`` both sides
``ede``      ``DC CVAP (k,0)`` + ``STR (0,k)``          ``WAIT_ALL_KEYS`` /
             (Figure 7)                                 ``WAIT_KEY``
``none``     nothing (Unsafe)                           nothing
===========  ==================================================places=======

Tag convention: every persist-relevant instruction carries a ``comment``
tag — ``log:<op>``, ``store:<op>``, ``data:<op>``, ``commit:<txn>`` — that
the persist log and the consistency checker key on.

Every mode also has a *conservative* variant spelled ``<mode>+cons``
(``dsb+cons``, ``ede+cons``, ...): the same discipline plus an extra
ordering instruction after every data persist and init flush, the way
overfenced PMDK-era framework code orders eagerly instead of deferring to
the commit barrier.  Conservative programs are correct but carry ordering
instructions a proof can discharge — the input the fence autotuner
(:mod:`repro.analysis.autotune`) starts from.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.edk import ZERO_KEY, EdkAllocator
from repro.isa import instructions as ops
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import TraceBuilder

#: Fence modes (Table III).
MODE_DSB = "dsb"
MODE_DMB_ST = "dmb_st"
MODE_EDE = "ede"
MODE_NONE = "none"

ALL_MODES = (MODE_DSB, MODE_DMB_ST, MODE_EDE, MODE_NONE)

#: Suffix selecting the conservative (overfenced) variant of a mode.
CONS_SUFFIX = "+cons"


def base_mode(mode: str) -> str:
    """The Table III mode underneath a possibly-conservative spelling."""
    if mode.endswith(CONS_SUFFIX):
        return mode[: -len(CONS_SUFFIX)]
    return mode


def is_conservative(mode: str) -> bool:
    return mode.endswith(CONS_SUFFIX)


def conservative_mode(mode: str) -> str:
    """The conservative spelling of ``mode`` (idempotent)."""
    return mode if is_conservative(mode) else mode + CONS_SUFFIX


def validate_mode(mode: str) -> str:
    """Return ``mode`` if its base is a Table III mode, else raise."""
    if base_mode(mode) not in ALL_MODES:
        raise ValueError(
            "unknown fence mode %r (expected one of %s, optionally "
            "with the %r suffix)" % (mode, ", ".join(ALL_MODES), CONS_SUFFIX))
    return mode


def mode_safe_by_spec(mode: str) -> bool:
    """Table III safety of a mode, conservative spellings included.

    Extra fences never make an unsafe discipline safe — ``dmb_st+cons``
    is as unsafe by specification as ``dmb_st`` — so the lookup goes
    through :func:`base_mode`.  Unknown modes are treated as claiming
    safety, matching the analyzer's historical default.
    """
    return MODE_SAFE_BY_SPEC.get(base_mode(mode), True)

#: Whether each mode's discipline is safe by specification (Table III):
#: ``dmb_st`` is unsafe because AArch64's ``DMB ST`` does not order
#: ``DC CVAP``, and ``none`` orders nothing at all.  The static analyzer
#: reports a statically-violated persist obligation at error severity only
#: under modes that claim safety.
MODE_SAFE_BY_SPEC = {
    MODE_DSB: True,
    MODE_DMB_ST: False,
    MODE_EDE: True,
    MODE_NONE: False,
}

# Register conventions for emitted framework code.
_R_TARGET = 10   # element address
_R_OLD = 11      # original value
_R_SLOT = 12     # log slot address
_R_NEW = 13      # new value
_R_TMP = 14      # commit record scratch
_R_LOAD = 15     # destination of framework reads
_R_HEAD = 16     # undo-log head index
_R_HEADP = 17    # address of the head index
_R_SCALE = 18    # slot-size scratch


def log_tag(op_id: int) -> str:
    return "log:%d" % op_id


def store_tag(op_id: int) -> str:
    return "store:%d" % op_id


def data_tag(op_id: int) -> str:
    return "data:%d" % op_id


def commit_tag(txn_id: int) -> str:
    return "commit:%d" % txn_id


class PersistOpEmitter:
    """Emits the instruction sequences the framework injects."""

    def __init__(self, mode: str, builder: TraceBuilder,
                 edk_allocator: Optional[EdkAllocator] = None):
        validate_mode(mode)
        self.mode = base_mode(mode)
        self.conservative = is_conservative(mode)
        self.builder = builder
        self.edks = edk_allocator if edk_allocator is not None else EdkAllocator()

    def _emit_conservative_order(self, key: int = ZERO_KEY) -> None:
        """The overfenced variant's eager ordering after a persist.

        ``key`` is the EDK the persist just produced (EDE mode only);
        the fence modes re-emit their fence.
        """
        emit = self.builder.emit
        if self.mode == MODE_DSB:
            emit(ops.dsb_sy())
        elif self.mode == MODE_DMB_ST:
            emit(ops.dmb_st())
        elif self.mode == MODE_EDE and key != ZERO_KEY:
            emit(ops.wait_key(key))

    # --- reads ---------------------------------------------------------------

    def emit_read(self, addr: int, dest_reg: int = _R_LOAD) -> None:
        """A framework-level read: materialize the address, then load."""
        self.builder.emit(ops.mov_imm(_R_TARGET, addr))
        self.builder.emit(ops.ldr(dest_reg, _R_TARGET, addr=addr))

    # --- the logged update (Figures 2, 4 and 7) ------------------------------------

    def emit_reserve_slot(self, slot_addr: int, head_addr: int) -> None:
        """``undo_log->reserve_uint64()`` (Figure 2a, line 2).

        Loads the log head index from the framework's volatile (DRAM)
        bookkeeping, bounds-checks it, computes the slot address and bumps
        the head.  The head load forwards from the previous operation's
        head store, which is the realistic serial dependence between
        consecutive reservations.
        """
        emit = self.builder.emit
        emit(ops.mov_imm(_R_HEADP, head_addr))
        emit(ops.ldr(_R_HEAD, _R_HEADP, addr=head_addr))
        emit(ops.cmp(_R_HEAD, imm=1 << 16))
        emit(ops.Instruction(ops.Opcode.LSL, dst=(_R_SCALE,),
                             src=(_R_HEAD,), imm=4))
        emit(ops.add(_R_TMP, _R_HEAD, imm=1))
        emit(ops.store(_R_TMP, _R_HEADP, addr=head_addr))
        # Materialize the slot address (base + head * 16).
        emit(ops.mov_imm(_R_SLOT, slot_addr))

    def emit_logged_update(self, op_id: int, target_addr: int,
                           new_value: int, slot_addr: int,
                           head_addr: Optional[int] = None) -> None:
        """Emit ``log_value`` + ``update_value`` for one element update."""
        emit = self.builder.emit
        # log_value: reserve a slot, store addr & original value, persist
        # the slot.
        if head_addr is not None:
            self.emit_reserve_slot(slot_addr, head_addr)
        else:
            emit(ops.mov_imm(_R_SLOT, slot_addr))
        emit(ops.mov_imm(_R_TARGET, target_addr))
        emit(ops.ldr(_R_OLD, _R_TARGET, addr=target_addr))
        emit(ops.stp(_R_TARGET, _R_OLD, _R_SLOT, addr=slot_addr))

        if self.mode == MODE_EDE:
            key = self.edks.allocate()
            emit(ops.dc_cvap_ede(_R_SLOT, edk_def=key, edk_use=0,
                                 addr=slot_addr, comment=log_tag(op_id)))
            emit(ops.mov_imm(_R_NEW, new_value))
            emit(ops.store_ede(_R_NEW, _R_TARGET, edk_def=0, edk_use=key,
                               addr=target_addr, comment=store_tag(op_id)))
            # The data persist re-produces the key so WAIT_ALL_KEYS at
            # commit covers it (Figure 6 shows keys being reused like this).
            emit(ops.dc_cvap_ede(_R_TARGET, edk_def=key, edk_use=0,
                                 addr=target_addr, comment=data_tag(op_id)))
            if self.conservative:
                self._emit_conservative_order(key)
            return

        emit(ops.dc_cvap(_R_SLOT, addr=slot_addr, comment=log_tag(op_id)))
        if self.mode == MODE_DSB:
            emit(ops.dsb_sy())
        elif self.mode == MODE_DMB_ST:
            emit(ops.dmb_st())
        # update_value: store the new value and persist it; ordering with
        # the store is a plain memory dependence (same line).
        emit(ops.mov_imm(_R_NEW, new_value))
        emit(ops.store(_R_NEW, _R_TARGET, addr=target_addr,
                       comment=store_tag(op_id)))
        emit(ops.dc_cvap(_R_TARGET, addr=target_addr, comment=data_tag(op_id)))
        if self.conservative:
            self._emit_conservative_order()

    # --- unlogged initialization (PMDK: objects allocated in the same
    # transaction need no undo entries — on abort they are reclaimed) --------

    def emit_init_store(self, addr: int, value: int) -> None:
        """A plain persistent store to freshly allocated memory."""
        emit = self.builder.emit
        emit(ops.mov_imm(_R_NEW, value))
        emit(ops.mov_imm(_R_TARGET, addr))
        emit(ops.store(_R_NEW, _R_TARGET, addr=addr))

    def emit_flush(self, addr: int, tag: str) -> None:
        """Persist one cache line of freshly initialized data.

        Under EDE the flush produces a key so that ``WAIT_ALL_KEYS`` at
        commit covers it; under the fence modes the commit fence does.
        """
        emit = self.builder.emit
        emit(ops.mov_imm(_R_TARGET, addr))
        if self.mode == MODE_EDE:
            key = self.edks.allocate()
            emit(ops.dc_cvap_ede(_R_TARGET, edk_def=key, edk_use=0,
                                 addr=addr, comment=tag))
            if self.conservative:
                self._emit_conservative_order(key)
        else:
            emit(ops.dc_cvap(_R_TARGET, addr=addr, comment=tag))
            if self.conservative:
                self._emit_conservative_order()

    # --- transaction boundaries ------------------------------------------------------

    def emit_commit(self, txn_id: int, commit_addr: int) -> None:
        """Persist the commit record strictly after the transaction body."""
        emit = self.builder.emit
        if self.mode == MODE_DSB:
            emit(ops.dsb_sy())
        elif self.mode == MODE_DMB_ST:
            emit(ops.dmb_st())
        elif self.mode == MODE_EDE:
            emit(ops.wait_all_keys())

        emit(ops.mov_imm(_R_TMP, txn_id + 1))
        emit(ops.mov_imm(_R_TARGET, commit_addr))
        emit(ops.store(_R_TMP, _R_TARGET, addr=commit_addr,
                       comment="commit-store:%d" % txn_id))
        if self.mode == MODE_EDE:
            key = self.edks.allocate()
            emit(ops.dc_cvap_ede(_R_TARGET, edk_def=key, edk_use=0,
                                 addr=commit_addr, comment=commit_tag(txn_id)))
            emit(ops.wait_key(key))
        else:
            emit(ops.dc_cvap(_R_TARGET, addr=commit_addr,
                             comment=commit_tag(txn_id)))
            if self.mode == MODE_DSB:
                emit(ops.dsb_sy())
            elif self.mode == MODE_DMB_ST:
                emit(ops.dmb_st())


# --- program rewriting (edit lists) ------------------------------------------

#: Pure ordering instructions: no data effect, no persist tag — the only
#: opcodes the rewriter may drop.  ``DMB ST`` is included so conservative
#: ``dmb_st+cons`` programs can be thinned too.
ORDERING_OPCODES = (Opcode.DSB_SY, Opcode.DMB_SY, Opcode.DMB_ST,
                    Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS)


class RewriteError(ValueError):
    """An edit list asked for a rewrite the rewriter cannot prove safe."""


def ordering_sites(instructions: Sequence[Instruction]) -> List[int]:
    """Sites of droppable ordering instructions (fences and waits).

    Tagged instructions are never candidates: a ``comment`` marks a
    persist event the consistency checker keys on, and the shipped
    emitters never tag fences or waits anyway.
    """
    return [
        site for site, inst in enumerate(instructions)
        if inst.opcode in ORDERING_OPCODES and inst.comment is None
    ]


def remap_keys(inst: Instruction, key_map: Optional[Dict[int, int]]
               ) -> Tuple[int, int, int]:
    """``inst``'s ``(edk_def, edk_use, edk_use2)`` after renaming by
    ``key_map``; the second use key of a ``JOIN`` keeps its name."""
    if not key_map:
        return inst.edk_def, inst.edk_use, inst.edk_use2
    return (key_map.get(inst.edk_def, inst.edk_def),
            key_map.get(inst.edk_use, inst.edk_use), inst.edk_use2)


class Rewriter:
    """The rewriter's safety rails for one program, and the rewrite itself.

    :meth:`check` validates an edit list — ``drop`` names sites of
    ordering instructions to remove; ``key_map`` renames EDK
    producers/consumers (identity for keys it omits; the zero key can
    never be remapped) — so callers cannot accidentally delete a tagged
    persist, a data-effecting instruction, or shift branch targets.
    :meth:`apply` checks, then materializes the candidate program as a
    fresh instruction list; the input is never mutated.  A search that
    only needs the verdict of the rails calls :meth:`check` per trial and
    scans the program for branches once.
    """

    def __init__(self, instructions: Sequence[Instruction]):
        self.instructions = instructions
        self._branchy = any(inst.is_branch for inst in instructions)

    def check(self, drop: Iterable[int] = (),
              key_map: Optional[Dict[int, int]] = None) -> Set[int]:
        """Raise :class:`RewriteError` unless the edits are safe; returns
        the drop set."""
        instructions = self.instructions
        drop_set = set(drop)
        for site in drop_set:
            if not 0 <= site < len(instructions):
                raise RewriteError("drop site %d out of range" % site)
            inst = instructions[site]
            if inst.opcode not in ORDERING_OPCODES:
                raise RewriteError(
                    "site %d is %s, not a droppable ordering instruction"
                    % (site, inst.opcode.name))
            if inst.comment is not None:
                raise RewriteError(
                    "site %d carries persist tag %r and cannot be dropped"
                    % (site, inst.comment))
        if drop_set and self._branchy:
            raise RewriteError(
                "cannot drop instructions from a program with branches: "
                "targets would shift")
        if key_map:
            for old, new in key_map.items():
                if old == ZERO_KEY or new == ZERO_KEY:
                    raise RewriteError("the zero key cannot be remapped")
        return drop_set

    def apply(self, drop: Iterable[int] = (),
              key_map: Optional[Dict[int, int]] = None) -> List[Instruction]:
        drop_set = self.check(drop, key_map)
        out: List[Instruction] = []
        for site, inst in enumerate(self.instructions):
            if site in drop_set:
                continue
            if key_map and (inst.edk_def != ZERO_KEY
                            or inst.edk_use != ZERO_KEY):
                edk_def, edk_use, _ = remap_keys(inst, key_map)
                inst = dataclasses.replace(inst, edk_def=edk_def,
                                           edk_use=edk_use)
            out.append(inst)
        return out


