"""Instruction objects, including the EDE operand fields.

An :class:`Instruction` is the static form produced by the assembler or by
the trace builders in :mod:`repro.nvmfw`.  It captures the opcode, register
operands, immediate, and — for the EDE variants — the ``EDK_def`` /
``EDK_use`` operands introduced by the paper (Section IV-B).  Following the
paper's notation, EDE instructions print their keys in a parenthesised prefix
``(EDK_def, EDK_use)``, e.g. ``str (0, 1), x3, [x0]``.

For trace-driven timing simulation an instruction may additionally carry a
pre-resolved effective address (``addr``) and access size; the functional
machine in :mod:`repro.isa.machine` resolves these dynamically instead.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Optional, Tuple

from repro.core.edk import ZERO_KEY, validate_edk
from repro.isa import registers
from repro.isa.opcodes import (
    CONDITIONAL_BRANCH_OPCODES,
    Opcode,
    is_barrier,
    is_branch,
    is_ede,
    is_load,
    is_memory,
    is_store,
    is_store_class,
    is_writeback,
)

#: Pseudo-register encoding for the condition flags (NZCV).  Conditional
#: branches read it, CMP writes it; the timing model tracks it in the same
#: scoreboard as the architectural registers.
FLAGS_REG = -1

#: Per-opcode classification, precomputed once and indexed by opcode value:
#: ``(is_load, is_store, is_writeback, is_store_class, is_memory,
#: is_barrier, is_branch, is_ede, enters_iq)``.  The timing model unpacks
#: one entry per dynamic instruction instead of querying the opcode
#: predicate functions; ``enters_iq`` is False for the opcodes that bypass
#: the issue queue (barriers, WAITs, NOP and HALT).
CLASSIFICATION_BY_OPCODE = [None] * (max(Opcode) + 1)
for _op in Opcode:
    CLASSIFICATION_BY_OPCODE[_op] = (
        is_load(_op), is_store(_op), is_writeback(_op), is_store_class(_op),
        is_memory(_op), is_barrier(_op), is_branch(_op), is_ede(_op),
        not (is_barrier(_op) or _op in (
            Opcode.NOP, Opcode.HALT, Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS)),
    )
del _op

#: Implicit extra scoreboard reads/writes beyond the encoded operands.
_EXTRA_SRC = {op: (FLAGS_REG,) for op in CONDITIONAL_BRANCH_OPCODES}
_EXTRA_DST = {Opcode.CMP: (FLAGS_REG,), Opcode.BL: (30,)}


class InstructionShape:
    """The facts an instruction's shape determines, shared by every
    instruction of that shape.

    The shape is ``(opcode, dst, src, edk_def, edk_use, edk_use2, size)``:
    everything but the immediate, the resolved address and the
    annotations.  A trace of hundreds of thousands of instructions has
    only a few dozen distinct shapes, so the operand validation and the
    timing model's register and consumer-key views are computed once per
    shape (:func:`shape_of`) instead of once per instruction.  Shapes are
    interned: equal shapes are the same object, also after unpickling, so
    later passes (the replay prepass) can memoise their own per-shape
    facts keyed by it.  ``repr_format`` is the dataclass repr with the
    opcode and EDK operands already rendered; the other fields are
    filled in per instance (an operand that only compares equal, such as
    ``size=8.0``, still renders as given).
    """

    __slots__ = ("key", "edk_def", "edk_use", "edk_use2", "consumer_keys",
                 "timing_src_regs", "timing_dst_regs", "repr_format")

    def __reduce__(self):
        return (shape_of, (self.key,))


#: Every valid shape seen so far, by key.  A shape that fails validation
#: is never stored, so each construction of it raises again.
_SHAPES: dict = {}


def _same_operands(known: tuple, key: tuple) -> bool:
    """Whether ``key`` has the very opcode and EDK objects of the stored
    ``known``: an operand that only compares equal to a valid one (True
    for EDK 1, a plain int for an Opcode) must be validated on its own."""
    return (known[0] is key[0] and known[3] is key[3]
            and known[4] is key[4] and known[5] is key[5])


def shape_of(key: tuple) -> InstructionShape:
    """The interned :class:`InstructionShape` for ``key``; raises
    ``ValueError`` (and stores nothing) when the shape is invalid."""
    shape = _SHAPES.get(key)
    if shape is not None and _same_operands(shape.key, key):
        return shape
    opcode, dst, src, edk_def, edk_use, edk_use2, size = key
    if edk_def or edk_use or edk_use2:
        validate_edk(edk_def)
        validate_edk(edk_use)
        validate_edk(edk_use2)
        if not CLASSIFICATION_BY_OPCODE[opcode][7]:
            raise ValueError(
                "non-EDE opcode %s cannot carry EDK operands" % opcode.name
            )
        if edk_use2 and opcode is not Opcode.JOIN:
            raise ValueError("edk_use2 is only valid on JOIN")
        consumer_keys = tuple(k for k in (edk_use, edk_use2)
                              if k != ZERO_KEY)
    else:
        # All-zero keys (the common case) are always valid.
        consumer_keys = ()
    if size not in (1, 2, 4, 8, 16):
        raise ValueError("invalid access size: %r" % (size,))
    shape = InstructionShape()
    shape.key = key
    shape.edk_def, shape.edk_use, shape.edk_use2 = edk_def, edk_use, edk_use2
    shape.consumer_keys = consumer_keys
    used = tuple(r for r in src if r != 31) if 31 in src else src
    extra = _EXTRA_SRC.get(opcode)
    shape.timing_src_regs = used + extra if extra else used
    defined = tuple(r for r in dst if r != 31) if 31 in dst else dst
    extra = _EXTRA_DST.get(opcode)
    shape.timing_dst_regs = defined + extra if extra else defined
    shape.repr_format = (
        "Instruction(opcode=%r, dst=%%r, src=%%r, imm=%%r, edk_def=%r, "
        "edk_use=%r, edk_use2=%r, addr=%%r, size=%%r, target=%%r, "
        "comment=%%r)" % (opcode, edk_def, edk_use, edk_use2))
    # Intern the first valid spelling of a key; an equal one with other
    # operand objects keeps a shape of its own.
    _SHAPES.setdefault(key, shape)
    return shape


class _Filling:
    """An :class:`Instruction`'s per-instance fields as slots, without the
    frozen ``__setattr__``: a new instruction is filled in as one of these
    with plain slot stores (a frozen dataclass pays a call per field),
    then becomes an :class:`Instruction` by ``__class__`` assignment.  The
    EDK operands are read from the interned shape, which holds the very
    objects given; ``dst``, ``src`` and ``size`` stay per instance, as a
    spelling that only compares equal (``size=8.0``) shares the shape."""

    __slots__ = ("_shape", "opcode", "dst", "src", "imm", "addr", "size",
                 "target", "comment")


_new_filling = object.__new__


@dataclasses.dataclass(frozen=True, init=False, repr=False)
class Instruction(_Filling):
    """A single static instruction.

    Attributes:
        opcode: The operation performed.
        dst: Destination register encodings (written registers).
        src: Source register encodings (read registers).
        imm: Immediate operand (offset, constant, or branch target label id).
        edk_def: Dependence-producer key (0 = zero key, i.e. unused).
        edk_use: First dependence-consumer key (0 = unused).
        edk_use2: Second consumer key; only meaningful for ``JOIN``.
        addr: Optional pre-resolved effective address for trace-driven runs.
        size: Access size in bytes for memory operations.
        target: Optional symbolic branch target (label name).
        comment: Free-form annotation carried through to the timing model
            (used by the consistency checker to tag persist obligations).
    """

    __slots__ = ()

    opcode: Opcode
    dst: Tuple[int, ...]
    src: Tuple[int, ...]
    imm: int
    edk_def: int
    edk_use: int
    edk_use2: int
    addr: Optional[int]
    size: int
    target: Optional[str]
    comment: Optional[str]

    def __new__(cls, opcode: Opcode, dst: Tuple[int, ...] = (),
                src: Tuple[int, ...] = (), imm: int = 0,
                edk_def: int = ZERO_KEY, edk_use: int = ZERO_KEY,
                edk_use2: int = ZERO_KEY, addr: Optional[int] = None,
                size: int = 8, target: Optional[str] = None,
                comment: Optional[str] = None) -> "Instruction":
        # Trace builders construct one instruction per dynamic instruction,
        # so this is a hot path: validation plus the derived views come
        # from the interned shape (the identity test is _same_operands,
        # inlined).
        key = (opcode, dst, src, edk_def, edk_use, edk_use2, size)
        shape = _SHAPES.get(key)
        if shape is None:
            shape = shape_of(key)
        else:
            known = shape.key
            if (known[0] is not opcode or known[3] is not edk_def
                    or known[4] is not edk_use or known[5] is not edk_use2):
                shape = shape_of(key)
        self = _new_filling(_Filling)
        self._shape = shape
        self.opcode = opcode
        self.dst = dst
        self.src = src
        self.imm = imm
        self.addr = addr
        self.size = size
        self.target = target
        self.comment = comment
        self.__class__ = cls
        return self

    def __reduce__(self):
        return (self.__class__, (
            self.opcode, self.dst, self.src, self.imm, self.edk_def,
            self.edk_use, self.edk_use2, self.addr, self.size, self.target,
            self.comment))

    def with_addr(self, addr: Optional[int]) -> "Instruction":
        """``dataclasses.replace(self, addr=addr)`` without the shape
        lookup: the address is not part of the shape."""
        new = _new_filling(_Filling)
        new._shape = self._shape
        new.opcode = self.opcode
        new.dst = self.dst
        new.src = self.src
        new.imm = self.imm
        new.addr = addr
        new.size = self.size
        new.target = self.target
        new.comment = self.comment
        new.__class__ = self.__class__
        return new

    # --- shape views ------------------------------------------------------
    # Per-opcode classification lives in CLASSIFICATION_BY_OPCODE, and
    # everything else that depends only on the shape in InstructionShape;
    # the replay prepass reads both once per shape, not per instruction.

    @property
    def timing_src_regs(self) -> Tuple[int, ...]:
        """Registers the timing scoreboard waits on (XZR dropped, NZCV
        added for conditional branches)."""
        return self._shape.timing_src_regs

    @property
    def timing_dst_regs(self) -> Tuple[int, ...]:
        """Registers the timing scoreboard marks written (XZR dropped,
        NZCV for CMP, X30 for BL)."""
        return self._shape.timing_dst_regs

    # --- classification helpers -------------------------------------------
    # Backed by CLASSIFICATION_BY_OPCODE; hot pipeline code indexes the
    # table directly rather than going through these properties.

    @property
    def is_load(self) -> bool:
        return CLASSIFICATION_BY_OPCODE[self.opcode][0]

    @property
    def is_store(self) -> bool:
        return CLASSIFICATION_BY_OPCODE[self.opcode][1]

    @property
    def is_writeback(self) -> bool:
        return CLASSIFICATION_BY_OPCODE[self.opcode][2]

    @property
    def is_store_class(self) -> bool:
        return CLASSIFICATION_BY_OPCODE[self.opcode][3]

    @property
    def is_memory(self) -> bool:
        return CLASSIFICATION_BY_OPCODE[self.opcode][4]

    @property
    def is_barrier(self) -> bool:
        return CLASSIFICATION_BY_OPCODE[self.opcode][5]

    @property
    def is_branch(self) -> bool:
        return CLASSIFICATION_BY_OPCODE[self.opcode][6]

    @property
    def is_ede(self) -> bool:
        return CLASSIFICATION_BY_OPCODE[self.opcode][7]

    @property
    def enters_iq(self) -> bool:
        """Whether the instruction occupies an issue-queue slot."""
        return CLASSIFICATION_BY_OPCODE[self.opcode][8]

    @property
    def is_producer(self) -> bool:
        """True when the instruction defines a non-zero EDK (Section IV-A2)."""
        return self.edk_def != ZERO_KEY

    @property
    def is_consumer(self) -> bool:
        """True when the instruction uses a non-zero EDK (Section IV-A3)."""
        return self.edk_use != ZERO_KEY or self.edk_use2 != ZERO_KEY

    def consumer_keys(self) -> Tuple[int, ...]:
        """Non-zero consumer keys, in operand order."""
        return self._shape.consumer_keys

    # --- pretty printing ----------------------------------------------------

    def __repr__(self) -> str:
        # The dataclass repr, byte for byte, from the shape's template.
        return self._shape.repr_format % (
            self.dst, self.src, self.imm, self.addr, self.size, self.target,
            self.comment)

    def _edk_prefix(self) -> str:
        if self.opcode is Opcode.JOIN:
            return "(%d, %d, %d)" % (self.edk_def, self.edk_use, self.edk_use2)
        if self.opcode is Opcode.WAIT_KEY:
            return "(%d)" % self.edk_use
        return "(%d, %d)" % (self.edk_def, self.edk_use)

    def mnemonic(self) -> str:
        """Assembly-style rendering, following the paper's notation."""
        op = self.opcode
        name = registers.reg_name
        if op is Opcode.NOP:
            return "nop"
        if op is Opcode.HALT:
            return "halt"
        if op in (Opcode.MOV,):
            if self.src:
                return "mov %s, %s" % (name(self.dst[0]), name(self.src[0]))
            return "mov %s, #%d" % (name(self.dst[0]), self.imm)
        if op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.ORR, Opcode.EOR,
                  Opcode.MUL, Opcode.LSL, Opcode.LSR):
            if len(self.src) == 2:
                return "%s %s, %s, %s" % (
                    op.name.lower(), name(self.dst[0]), name(self.src[0]),
                    name(self.src[1]))
            return "%s %s, %s, #%d" % (
                op.name.lower(), name(self.dst[0]), name(self.src[0]), self.imm)
        if op is Opcode.CMP:
            if len(self.src) == 2:
                return "cmp %s, %s" % (name(self.src[0]), name(self.src[1]))
            return "cmp %s, #%d" % (name(self.src[0]), self.imm)
        if op in (Opcode.B, Opcode.BL):
            return "%s %s" % (op.name.lower(), self.target or hex(self.imm))
        if op in (Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE):
            cond = op.name.split("_")[1].lower()
            return "b.%s %s" % (cond, self.target or hex(self.imm))
        if op is Opcode.RET:
            return "ret"
        if op is Opcode.LDR:
            return "ldr %s, [%s, #%d]" % (name(self.dst[0]), name(self.src[0]), self.imm)
        if op is Opcode.LDR_EDE:
            return "ldr %s, %s, [%s, #%d]" % (
                self._edk_prefix(), name(self.dst[0]), name(self.src[0]), self.imm)
        if op is Opcode.STR:
            return "str %s, [%s, #%d]" % (name(self.src[0]), name(self.src[1]), self.imm)
        if op is Opcode.STR_EDE:
            return "str %s, %s, [%s, #%d]" % (
                self._edk_prefix(), name(self.src[0]), name(self.src[1]), self.imm)
        if op is Opcode.STP:
            return "stp %s, %s, [%s, #%d]" % (
                name(self.src[0]), name(self.src[1]), name(self.src[2]), self.imm)
        if op is Opcode.STP_EDE:
            return "stp %s, %s, %s, [%s, #%d]" % (
                self._edk_prefix(), name(self.src[0]), name(self.src[1]),
                name(self.src[2]), self.imm)
        if op is Opcode.DC_CVAP:
            return "dc cvap, %s" % name(self.src[0])
        if op is Opcode.DC_CVAP_EDE:
            return "dc cvap %s, %s" % (self._edk_prefix(), name(self.src[0]))
        if op is Opcode.DSB_SY:
            return "dsb sy"
        if op is Opcode.DMB_ST:
            return "dmb st"
        if op is Opcode.DMB_SY:
            return "dmb sy"
        if op is Opcode.JOIN:
            return "join %s" % self._edk_prefix()
        if op is Opcode.WAIT_KEY:
            return "wait_key %s" % self._edk_prefix()
        if op is Opcode.WAIT_ALL_KEYS:
            return "wait_all_keys"
        raise ValueError("unknown opcode: %r" % (op,))

    def __str__(self) -> str:
        text = self.mnemonic()
        if self.comment:
            return "%s ; %s" % (text, self.comment)
        return text


# The EDK operands, read from the shape (see _Filling).
Instruction.edk_def = property(operator.attrgetter("_shape.edk_def"))
Instruction.edk_use = property(operator.attrgetter("_shape.edk_use"))
Instruction.edk_use2 = property(operator.attrgetter("_shape.edk_use2"))


# ---------------------------------------------------------------------------
# Construction helpers.  These keep workload/framework code readable and are
# the supported way to build instructions programmatically.
# ---------------------------------------------------------------------------

def nop() -> Instruction:
    return Instruction(Opcode.NOP)


def halt() -> Instruction:
    return Instruction(Opcode.HALT)


def mov_imm(rd: int, imm: int) -> Instruction:
    return Instruction(Opcode.MOV, dst=(rd,), imm=imm)


def mov_reg(rd: int, rn: int) -> Instruction:
    return Instruction(Opcode.MOV, dst=(rd,), src=(rn,))


def add(rd: int, rn: int, rm: Optional[int] = None, imm: int = 0) -> Instruction:
    if rm is None:
        return Instruction(Opcode.ADD, dst=(rd,), src=(rn,), imm=imm)
    return Instruction(Opcode.ADD, dst=(rd,), src=(rn, rm))


def sub(rd: int, rn: int, rm: Optional[int] = None, imm: int = 0) -> Instruction:
    if rm is None:
        return Instruction(Opcode.SUB, dst=(rd,), src=(rn,), imm=imm)
    return Instruction(Opcode.SUB, dst=(rd,), src=(rn, rm))


def cmp(rn: int, rm: Optional[int] = None, imm: int = 0) -> Instruction:
    if rm is None:
        return Instruction(Opcode.CMP, src=(rn,), imm=imm)
    return Instruction(Opcode.CMP, src=(rn, rm))


def ldr(rd: int, rn: int, offset: int = 0, addr: Optional[int] = None,
        comment: Optional[str] = None) -> Instruction:
    return Instruction(Opcode.LDR, dst=(rd,), src=(rn,), imm=offset, addr=addr,
                       comment=comment)


def ldr_ede(rd: int, rn: int, edk_def: int, edk_use: int, offset: int = 0,
            addr: Optional[int] = None, comment: Optional[str] = None) -> Instruction:
    return Instruction(Opcode.LDR_EDE, dst=(rd,), src=(rn,), imm=offset,
                       edk_def=edk_def, edk_use=edk_use, addr=addr, comment=comment)


def store(rs: int, rn: int, offset: int = 0, addr: Optional[int] = None,
          comment: Optional[str] = None) -> Instruction:
    return Instruction(Opcode.STR, src=(rs, rn), imm=offset, addr=addr,
                       comment=comment)


def store_ede(rs: int, rn: int, edk_def: int, edk_use: int, offset: int = 0,
              addr: Optional[int] = None, comment: Optional[str] = None) -> Instruction:
    return Instruction(Opcode.STR_EDE, src=(rs, rn), imm=offset,
                       edk_def=edk_def, edk_use=edk_use, addr=addr, comment=comment)


def stp(rs1: int, rs2: int, rn: int, offset: int = 0, addr: Optional[int] = None,
        comment: Optional[str] = None) -> Instruction:
    return Instruction(Opcode.STP, src=(rs1, rs2, rn), imm=offset, addr=addr,
                       size=16, comment=comment)


def stp_ede(rs1: int, rs2: int, rn: int, edk_def: int, edk_use: int,
            offset: int = 0, addr: Optional[int] = None,
            comment: Optional[str] = None) -> Instruction:
    return Instruction(Opcode.STP_EDE, src=(rs1, rs2, rn), imm=offset,
                       edk_def=edk_def, edk_use=edk_use, addr=addr, size=16,
                       comment=comment)


def dc_cvap(rn: int, addr: Optional[int] = None,
            comment: Optional[str] = None) -> Instruction:
    return Instruction(Opcode.DC_CVAP, src=(rn,), addr=addr, size=8, comment=comment)


def dc_cvap_ede(rn: int, edk_def: int, edk_use: int, addr: Optional[int] = None,
                comment: Optional[str] = None) -> Instruction:
    return Instruction(Opcode.DC_CVAP_EDE, src=(rn,), edk_def=edk_def,
                       edk_use=edk_use, addr=addr, size=8, comment=comment)


def dsb_sy() -> Instruction:
    return Instruction(Opcode.DSB_SY)


def dmb_st() -> Instruction:
    return Instruction(Opcode.DMB_ST)


def dmb_sy() -> Instruction:
    return Instruction(Opcode.DMB_SY)


def join(edk_def: int, edk_use1: int, edk_use2: int = ZERO_KEY) -> Instruction:
    return Instruction(Opcode.JOIN, edk_def=edk_def, edk_use=edk_use1,
                       edk_use2=edk_use2)


def wait_key(edk: int) -> Instruction:
    """WAIT_KEY is both a producer and a consumer of the same key."""
    return Instruction(Opcode.WAIT_KEY, edk_def=edk, edk_use=edk)


def wait_all_keys() -> Instruction:
    return Instruction(Opcode.WAIT_ALL_KEYS)


def branch(target: str) -> Instruction:
    return Instruction(Opcode.B, target=target)


def branch_cond(opcode: Opcode, target: str) -> Instruction:
    return Instruction(opcode, target=target)
