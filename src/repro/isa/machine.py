"""Functional (architectural) execution of assembled programs.

The timing model is trace-driven, so something must first execute a program
architecturally to resolve branches and effective addresses.  For workloads
that is the NVM framework (which executes in Python and emits instructions
directly); for hand-written assembly — the paper's Figures 4, 7 and 12 —
this module provides a simple sequential machine.

The machine models 64-bit registers, NZCV-style flags (only N and Z are
needed by the supported branches), and a sparse 64-bit word-addressed
memory.  Persist and barrier instructions have no functional effect; they
are recorded in the emitted trace for the timing model.

Interpretation strategy
-----------------------

:meth:`Machine.run` is a *threaded-code* interpreter: each :class:`Program`
is pre-decoded once (and memoized on the program) into a flat list of
per-instruction handler factories.  Decoding hoists everything static out
of the step loop — opcode dispatch, operand register indices, ALU function
selection, immediate masking, branch-target label resolution and the
XZR-operand special cases — so the hot loop is nothing but ``pc =
handlers[pc]()``.  Aligned 8-byte loads and stores additionally bypass
:class:`SparseMemory` method dispatch and operate on its word dictionary
directly.

The original instruction-by-instruction interpreter is preserved verbatim
as :meth:`Machine.run_reference`; the two produce bit-identical traces and
architectural state (``tests/isa/test_threaded_machine.py`` holds the
golden-equality suite, ``benchmarks/bench_selfperf.py`` tracks the
speedup).

Superinstruction fusion
-----------------------

On top of threading, :func:`compile_program_fused` fuses straight-line
handler runs into *superinstructions*: per basic-block chunk (leaders are
pc 0, label targets and branch targets), the per-instruction handler
bodies are code-generated into one flat Python function and ``exec``'d,
so a whole block costs a single indirect call and zero inter-instruction
dispatch.  Fusion is controlled by the ``REPRO_FUSION`` knob (default
on).  Chunks fall back to the per-instruction handlers when the machine's
memory is not a plain :class:`SparseMemory` (codegen'd memory ops write
the word dictionary directly) and instructions without a codegen template
(unhandled opcodes, sub-word memory ops, undefined labels) are never
fused.  Mid-chunk pcs keep their individual handlers, so dynamic entry
into the middle of a chunk (a computed ``RET``) stays correct, and the
step budget is charged per retired instruction, not per chunk — faults
and traces stay bit-identical to :meth:`Machine.run_reference`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import dataclasses

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REG_ENCODINGS, XZR

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


class MachineError(RuntimeError):
    """Raised on an illegal architectural event (bad address, runaway loop)."""


@dataclasses.dataclass
class Flags:
    negative: bool = False
    zero: bool = False


class SparseMemory:
    """Sparse little-endian memory, stored as aligned 8-byte words."""

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}

    def load(self, addr: int, size: int = 8) -> int:
        if size == 8:
            if addr % 8:
                raise MachineError("unaligned 8-byte load at %#x" % addr)
            return self._words.get(addr, 0)
        if size in (1, 2, 4):
            base = addr - addr % 8
            shift = (addr % 8) * 8
            word = self._words.get(base, 0)
            return (word >> shift) & ((1 << (size * 8)) - 1)
        raise MachineError("unsupported load size %d" % size)

    def store(self, addr: int, value: int, size: int = 8) -> None:
        value &= (1 << (size * 8)) - 1
        if size == 8:
            if addr % 8:
                raise MachineError("unaligned 8-byte store at %#x" % addr)
            self._words[addr] = value
            return
        if size in (1, 2, 4):
            base = addr - addr % 8
            shift = (addr % 8) * 8
            mask = ((1 << (size * 8)) - 1) << shift
            word = self._words.get(base, 0)
            self._words[base] = (word & ~mask) | (value << shift)
            return
        raise MachineError("unsupported store size %d" % size)

    def snapshot(self) -> Dict[int, int]:
        return dict(self._words)


# ---------------------------------------------------------------------------
# Threaded-code compilation
# ---------------------------------------------------------------------------

#: Opcodes whose handlers only emit the instruction (no architectural effect).
_EMIT_ONLY_OPCODES = frozenset((
    Opcode.NOP, Opcode.DSB_SY, Opcode.DMB_ST, Opcode.DMB_SY,
    Opcode.JOIN, Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS,
))

_ALU_OPCODES = frozenset((
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.ORR,
    Opcode.EOR, Opcode.MUL, Opcode.LSL, Opcode.LSR,
))

#: Unmasked ALU semantics; handlers apply the 64-bit mask on writeback.
_ALU_FUNCS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.ORR: lambda a, b: a | b,
    Opcode.EOR: lambda a, b: a ^ b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.LSL: lambda a, b: a << (b & 63),
    Opcode.LSR: lambda a, b: (a & _MASK64) >> (b & 63),
}


def _with_addr(inst: Instruction, addr: int) -> Instruction:
    """A copy of ``inst`` with ``addr`` swapped in.

    Equivalent to ``dataclasses.replace(inst, addr=addr)`` but without
    re-running ``__post_init__``: the address does not feed any of the
    precomputed operand views, so the instance ``__dict__`` can be copied
    wholesale.  This is the dominant per-memory-op cost in the interpreter.
    """
    new = object.__new__(Instruction)
    d = dict(inst.__dict__)
    d["addr"] = addr
    new.__dict__.update(d)
    return new


def _resolve_static_target(inst: Instruction,
                           labels: Dict[str, int]) -> Optional[int]:
    """Branch target as a trace index, or None for an undefined label
    (which must fault at execution time, like the reference interpreter)."""
    if inst.target is not None:
        return labels.get(inst.target)
    return inst.imm


def _undefined_label_handler(inst: Instruction,
                             append: Callable[[Instruction], int]):
    def handler() -> int:
        raise MachineError("undefined label %r" % (inst.target,))
    return handler


def _make_factory(inst: Instruction, pc: int, labels: Dict[str, int],
                  program_len: int):
    """One per-instruction handler factory.

    The factory runs once per :meth:`Machine.run` call and binds the
    machine's mutable state (register file, flags, memory, trace) into a
    zero-argument handler returning the next pc.  Everything derivable
    from the static instruction is bound here, at decode time.
    """
    opcode = inst.opcode
    nxt = pc + 1
    imm = inst.imm
    static_addr = inst.addr
    size = inst.size

    if opcode is Opcode.HALT:
        def factory(machine: "Machine"):
            append = machine.trace.append

            def handler() -> int:
                append(inst)
                return program_len
            return handler
        return factory

    if opcode in _EMIT_ONLY_OPCODES:
        def factory(machine: "Machine"):
            append = machine.trace.append

            def handler() -> int:
                append(inst)
                return nxt
            return handler
        return factory

    if opcode is Opcode.MOV:
        rd = inst.dst[0]
        if inst.src:
            rs = inst.src[0]

            def factory(machine: "Machine"):
                regs = machine.regs
                append = machine.trace.append
                if rd == XZR:
                    def handler() -> int:
                        append(inst)
                        return nxt
                else:
                    def handler() -> int:
                        regs[rd] = regs[rs]
                        append(inst)
                        return nxt
                return handler
            return factory
        value = imm & _MASK64

        def factory(machine: "Machine"):
            regs = machine.regs
            append = machine.trace.append
            if rd == XZR:
                def handler() -> int:
                    append(inst)
                    return nxt
            else:
                def handler() -> int:
                    regs[rd] = value
                    append(inst)
                    return nxt
            return handler
        return factory

    if opcode in _ALU_OPCODES:
        rd = inst.dst[0]
        ra = inst.src[0]
        fn = _ALU_FUNCS[opcode]
        two_regs = len(inst.src) == 2
        rb = inst.src[1] if two_regs else None

        def factory(machine: "Machine"):
            regs = machine.regs
            append = machine.trace.append
            if rd == XZR:
                if two_regs:
                    def handler() -> int:
                        fn(regs[ra], regs[rb])
                        append(inst)
                        return nxt
                else:
                    def handler() -> int:
                        fn(regs[ra], imm)
                        append(inst)
                        return nxt
            elif two_regs:
                def handler() -> int:
                    regs[rd] = fn(regs[ra], regs[rb]) & _MASK64
                    append(inst)
                    return nxt
            else:
                def handler() -> int:
                    regs[rd] = fn(regs[ra], imm) & _MASK64
                    append(inst)
                    return nxt
            return handler
        return factory

    if opcode is Opcode.CMP:
        ra = inst.src[0]
        two_regs = len(inst.src) == 2
        rb = inst.src[1] if two_regs else None

        def factory(machine: "Machine"):
            regs = machine.regs
            flags = machine.flags
            append = machine.trace.append
            if two_regs:
                def handler() -> int:
                    result = (regs[ra] - regs[rb]) & _MASK64
                    flags.zero = result == 0
                    flags.negative = result >= _SIGN64
                    append(inst)
                    return nxt
            else:
                def handler() -> int:
                    result = (regs[ra] - imm) & _MASK64
                    flags.zero = result == 0
                    flags.negative = result >= _SIGN64
                    append(inst)
                    return nxt
            return handler
        return factory

    if opcode in (Opcode.LDR, Opcode.LDR_EDE):
        rd = inst.dst[0]
        rn = inst.src[0]

        def factory(machine: "Machine"):
            regs = machine.regs
            memory = machine.memory
            append = machine.trace.append
            words = getattr(memory, "_words", None)
            if words is not None and size == 8:
                get = words.get

                def handler() -> int:
                    addr = regs[rn] + imm
                    if addr % 8:
                        raise MachineError("unaligned 8-byte load at %#x"
                                           % addr)
                    if rd != XZR:
                        regs[rd] = get(addr, 0)
                    append(inst if static_addr == addr
                           else _with_addr(inst, addr))
                    return nxt
            else:
                load = memory.load

                def handler() -> int:
                    addr = regs[rn] + imm
                    value = load(addr, size)
                    if rd != XZR:
                        regs[rd] = value & _MASK64
                    append(inst if static_addr == addr
                           else _with_addr(inst, addr))
                    return nxt
            return handler
        return factory

    if opcode in (Opcode.STR, Opcode.STR_EDE):
        rs = inst.src[0]
        rn = inst.src[1]

        def factory(machine: "Machine"):
            regs = machine.regs
            memory = machine.memory
            append = machine.trace.append
            words = getattr(memory, "_words", None)
            if words is not None and size == 8:
                def handler() -> int:
                    addr = regs[rn] + imm
                    if addr % 8:
                        raise MachineError("unaligned 8-byte store at %#x"
                                           % addr)
                    words[addr] = regs[rs] & _MASK64
                    append(inst if static_addr == addr
                           else _with_addr(inst, addr))
                    return nxt
            else:
                store = memory.store

                def handler() -> int:
                    addr = regs[rn] + imm
                    store(addr, regs[rs], size)
                    append(inst if static_addr == addr
                           else _with_addr(inst, addr))
                    return nxt
            return handler
        return factory

    if opcode in (Opcode.STP, Opcode.STP_EDE):
        rs1 = inst.src[0]
        rs2 = inst.src[1]
        rn = inst.src[2]

        def factory(machine: "Machine"):
            regs = machine.regs
            memory = machine.memory
            append = machine.trace.append
            words = getattr(memory, "_words", None)
            if words is not None:
                def handler() -> int:
                    addr = regs[rn] + imm
                    if addr % 8:
                        raise MachineError("unaligned 8-byte store at %#x"
                                           % addr)
                    words[addr] = regs[rs1] & _MASK64
                    words[addr + 8] = regs[rs2] & _MASK64
                    append(inst if static_addr == addr
                           else _with_addr(inst, addr))
                    return nxt
            else:
                store = memory.store

                def handler() -> int:
                    addr = regs[rn] + imm
                    store(addr, regs[rs1], 8)
                    store(addr + 8, regs[rs2], 8)
                    append(inst if static_addr == addr
                           else _with_addr(inst, addr))
                    return nxt
            return handler
        return factory

    if opcode in (Opcode.DC_CVAP, Opcode.DC_CVAP_EDE):
        rn = inst.src[0]

        def factory(machine: "Machine"):
            regs = machine.regs
            append = machine.trace.append

            def handler() -> int:
                addr = regs[rn]
                append(inst if static_addr == addr
                       else _with_addr(inst, addr))
                return nxt
            return handler
        return factory

    if opcode in (Opcode.B, Opcode.BL):
        target = _resolve_static_target(inst, labels)
        link = opcode is Opcode.BL

        def factory(machine: "Machine"):
            append = machine.trace.append
            if target is None:
                return _undefined_label_handler(inst, append)
            if link:
                regs = machine.regs

                def handler() -> int:
                    regs[30] = nxt
                    append(inst)
                    return target
            else:
                def handler() -> int:
                    append(inst)
                    return target
            return handler
        return factory

    if opcode is Opcode.RET:
        def factory(machine: "Machine"):
            regs = machine.regs
            append = machine.trace.append

            def handler() -> int:
                append(inst)
                return regs[30]
            return handler
        return factory

    if opcode in (Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE):
        target = _resolve_static_target(inst, labels)
        on_zero = opcode in (Opcode.B_EQ, Opcode.B_NE)
        branch_if = opcode in (Opcode.B_EQ, Opcode.B_LT)

        def factory(machine: "Machine"):
            flags = machine.flags
            append = machine.trace.append
            if target is None:
                return _undefined_label_handler(inst, append)
            if on_zero:
                if branch_if:
                    def handler() -> int:      # b.eq
                        append(inst)
                        return target if flags.zero else nxt
                else:
                    def handler() -> int:      # b.ne
                        append(inst)
                        return nxt if flags.zero else target
            elif branch_if:
                def handler() -> int:          # b.lt
                    append(inst)
                    return target if flags.negative else nxt
            else:
                def handler() -> int:          # b.ge
                    append(inst)
                    return nxt if flags.negative else target
            return handler
        return factory

    def factory(machine: "Machine"):
        def handler() -> int:
            raise MachineError("unhandled opcode %s" % opcode.name)
        return handler
    return factory


def compile_program(program: Program) -> List:
    """Pre-decode ``program`` into per-instruction handler factories.

    The compiled form is memoized on the program object and invalidated
    when the program grows or its labels change, so repeated
    :meth:`Machine.run` calls (e.g. re-running a kernel under several
    configurations) pay the decode cost once.
    """
    labels = program.labels
    cached = getattr(program, "_threaded_cache", None)
    if cached is not None and cached[0] == len(program) and cached[1] == labels:
        return cached[2]
    instructions = program.instructions
    n = len(instructions)
    factories = [
        _make_factory(inst, pc, labels, n)
        for pc, inst in enumerate(instructions)
    ]
    program._threaded_cache = (n, labels, factories)
    return factories


# ---------------------------------------------------------------------------
# Superinstruction fusion
# ---------------------------------------------------------------------------

#: Opcodes that transfer control: they terminate a fused chunk (and are
#: fused into it as the final, pc-returning statement).
_CONTROL_OPCODES = frozenset((
    Opcode.B, Opcode.BL, Opcode.RET,
    Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE,
    Opcode.HALT,
))

#: Unmasked ALU source expressions, mirroring ``_ALU_FUNCS`` (codegen
#: applies the 64-bit mask on writeback, exactly like the handlers).
_ALU_EXPRS: Dict[Opcode, str] = {
    Opcode.ADD: "(%s + %s)",
    Opcode.SUB: "(%s - %s)",
    Opcode.AND: "(%s & %s)",
    Opcode.ORR: "(%s | %s)",
    Opcode.EOR: "(%s ^ %s)",
    Opcode.MUL: "(%s * %s)",
    Opcode.LSL: "(%s << (%s & 63))",
    Opcode.LSR: "((%s & _MASK64) >> (%s & 63))",
}


def _block_leaders(program: Program) -> frozenset:
    """Basic-block leaders: pc 0, every label and every static branch
    target, plus every control-transfer successor (fall-through pcs and
    ``BL`` return addresses)."""
    labels = program.labels
    instructions = program.instructions
    n = len(instructions)
    leaders = {0}
    for target in labels.values():
        if 0 <= target < n:
            leaders.add(target)
    for pc, inst in enumerate(instructions):
        opcode = inst.opcode
        if opcode in _CONTROL_OPCODES:
            if pc + 1 < n:
                leaders.add(pc + 1)
            if opcode not in (Opcode.RET, Opcode.HALT):
                target = _resolve_static_target(inst, labels)
                if target is not None and 0 <= target < n:
                    leaders.add(target)
    return frozenset(leaders)


def _emit_trace_line(pc: int, static_addr, addr_var: str) -> str:
    """Source for appending instruction ``pc`` with a dynamic address."""
    if static_addr is None:
        return "append(_with_addr(_i%d, %s))" % (pc, addr_var)
    return ("append(_i%d if %s == %d else _with_addr(_i%d, %s))"
            % (pc, addr_var, static_addr, pc, addr_var))


def _fused_lines(inst: Instruction, pc: int, labels: Dict[str, int],
                 program_len: int):
    """Codegen template for one instruction inside a fused chunk.

    Returns ``(lines, uses_memory, ends_chunk)`` or ``None`` when the
    instruction has no template (it then stays on its individual
    handler).  The generated statements mirror the threaded handlers —
    and therefore the reference interpreter — bit for bit, including
    fault points and trace-append order.
    """
    opcode = inst.opcode
    nxt = pc + 1
    imm = inst.imm
    static_addr = inst.addr

    if opcode is Opcode.HALT:
        return ["append(_i%d)" % pc, "return %d" % program_len], False, True

    if opcode in _EMIT_ONLY_OPCODES:
        return ["append(_i%d)" % pc], False, False

    if opcode is Opcode.MOV:
        rd = inst.dst[0]
        if rd == XZR:
            return ["append(_i%d)" % pc], False, False
        if inst.src:
            move = "regs[%d] = regs[%d]" % (rd, inst.src[0])
        else:
            move = "regs[%d] = %d" % (rd, imm & _MASK64)
        return [move, "append(_i%d)" % pc], False, False

    if opcode in _ALU_OPCODES:
        rd = inst.dst[0]
        lhs = "regs[%d]" % inst.src[0]
        rhs = ("regs[%d]" % inst.src[1] if len(inst.src) == 2
               else repr(imm))
        if rd == XZR:
            # The handlers evaluate the (side-effect-free) ALU function
            # and discard it; codegen skips the dead computation.
            return ["append(_i%d)" % pc], False, False
        expr = _ALU_EXPRS[opcode] % (lhs, rhs)
        return ["regs[%d] = %s & _MASK64" % (rd, expr),
                "append(_i%d)" % pc], False, False

    if opcode is Opcode.CMP:
        lhs = "regs[%d]" % inst.src[0]
        rhs = ("regs[%d]" % inst.src[1] if len(inst.src) == 2
               else repr(imm))
        return ["_t = (%s - %s) & _MASK64" % (lhs, rhs),
                "flags.zero = _t == 0",
                "flags.negative = _t >= _SIGN64",
                "append(_i%d)" % pc], False, False

    if opcode in (Opcode.LDR, Opcode.LDR_EDE):
        if inst.size != 8:
            return None
        rd = inst.dst[0]
        lines = ["_a = regs[%d] + %d" % (inst.src[0], imm),
                 "if _a % 8:",
                 "    raise MachineError('unaligned 8-byte load at %#x'"
                 " % _a)"]
        if rd != XZR:
            lines.append("regs[%d] = get(_a, 0)" % rd)
        lines.append(_emit_trace_line(pc, static_addr, "_a"))
        return lines, True, False

    if opcode in (Opcode.STR, Opcode.STR_EDE):
        if inst.size != 8:
            return None
        lines = ["_a = regs[%d] + %d" % (inst.src[1], imm),
                 "if _a % 8:",
                 "    raise MachineError('unaligned 8-byte store at %#x'"
                 " % _a)",
                 "words[_a] = regs[%d] & _MASK64" % inst.src[0],
                 _emit_trace_line(pc, static_addr, "_a")]
        return lines, True, False

    if opcode in (Opcode.STP, Opcode.STP_EDE):
        lines = ["_a = regs[%d] + %d" % (inst.src[2], imm),
                 "if _a % 8:",
                 "    raise MachineError('unaligned 8-byte store at %#x'"
                 " % _a)",
                 "words[_a] = regs[%d] & _MASK64" % inst.src[0],
                 "words[_a + 8] = regs[%d] & _MASK64" % inst.src[1],
                 _emit_trace_line(pc, static_addr, "_a")]
        return lines, True, False

    if opcode in (Opcode.DC_CVAP, Opcode.DC_CVAP_EDE):
        return ["_a = regs[%d]" % inst.src[0],
                _emit_trace_line(pc, static_addr, "_a")], False, False

    if opcode in (Opcode.B, Opcode.BL, Opcode.B_EQ, Opcode.B_NE,
                  Opcode.B_LT, Opcode.B_GE):
        target = _resolve_static_target(inst, labels)
        if target is None:
            return None  # must fault at execution time, unfused
        if opcode is Opcode.B:
            return ["append(_i%d)" % pc, "return %d" % target], False, True
        if opcode is Opcode.BL:
            return ["regs[30] = %d" % nxt, "append(_i%d)" % pc,
                    "return %d" % target], False, True
        if opcode is Opcode.B_EQ:
            tail = "return %d if flags.zero else %d" % (target, nxt)
        elif opcode is Opcode.B_NE:
            tail = "return %d if flags.zero else %d" % (nxt, target)
        elif opcode is Opcode.B_LT:
            tail = "return %d if flags.negative else %d" % (target, nxt)
        else:
            tail = "return %d if flags.negative else %d" % (nxt, target)
        return ["append(_i%d)" % pc, tail], False, True

    if opcode is Opcode.RET:
        return ["append(_i%d)" % pc, "return regs[30]"], False, True

    return None


def compile_program_fused(program: Program):
    """Fuse straight-line handler runs into codegen'd superinstructions.

    Returns ``(factories, weights)``, both parallel to the program:
    ``factories[pc]`` is a fused-chunk factory at each chunk-start pc
    (``None`` elsewhere) and ``weights[pc]`` is the number of
    instructions that chunk retires per call (1 elsewhere).  A fused
    factory binds one machine's state and returns the chunk handler — or
    ``None`` when the chunk touches memory and the machine's memory is
    not a plain :class:`SparseMemory`, in which case the caller keeps the
    per-instruction handlers for that chunk.  Memoized on the program
    like :func:`compile_program`.
    """
    labels = program.labels
    cached = getattr(program, "_fused_cache", None)
    if (cached is not None and cached[0] == len(program)
            and cached[1] == labels):
        return cached[2], cached[3]
    instructions = program.instructions
    n = len(instructions)
    leaders = _block_leaders(program)
    factories: List = [None] * n
    weights = [1] * n
    namespace = {
        "_MASK64": _MASK64, "_SIGN64": _SIGN64,
        "MachineError": MachineError, "_with_addr": _with_addr,
        "SparseMemory": SparseMemory,
    }
    source_parts: List[str] = []
    chunks: List[tuple] = []  # (start_pc, length)
    pc = 0
    while pc < n:
        start = pc
        body: List[str] = []
        uses_memory = False
        ends = False
        while pc < n and not (pc > start and pc in leaders):
            info = _fused_lines(instructions[pc], pc, labels, n)
            if info is None:
                break
            lines, mem, ends = info
            body.extend(lines)
            uses_memory = uses_memory or mem
            namespace["_i%d" % pc] = instructions[pc]
            pc += 1
            if ends:
                break
        length = pc - start
        if length < 2:
            # Unfused pc (no template, or a singleton chunk with nothing
            # to gain): keep the individual handler and move past it.
            pc = max(pc, start + 1)
            continue
        if not ends:
            body.append("return %d" % pc)
        bind = ["    regs = machine.regs",
                "    flags = machine.flags",
                "    append = machine.trace.append"]
        if uses_memory:
            bind = ["    memory = machine.memory",
                    "    if type(memory) is not SparseMemory:",
                    "        return None",
                    "    words = memory._words",
                    "    get = words.get"] + bind
        source_parts.append(
            "def _fused_%d(machine):\n%s\n    def handler():\n%s\n"
            "    return handler\n"
            % (start, "\n".join(bind),
               "\n".join("        " + line for line in body)))
        chunks.append((start, length))
    if chunks:
        exec(compile("\n".join(source_parts),
                     "<fused:%s>" % getattr(program, "name", "program"),
                     "exec"), namespace)
        for start, length in chunks:
            factories[start] = namespace["_fused_%d" % start]
            weights[start] = length
    program._fused_cache = (n, labels, factories, weights)
    return factories, weights


class Machine:
    """Executes a :class:`Program` and emits a dynamic trace."""

    def __init__(self, memory: Optional[SparseMemory] = None):
        self.regs = [0] * NUM_REG_ENCODINGS
        self.flags = Flags()
        self.memory = memory if memory is not None else SparseMemory()
        self.trace: List[Instruction] = []

    # --- register helpers ---------------------------------------------------

    def read_reg(self, reg: int) -> int:
        if reg == XZR:
            return 0
        return self.regs[reg]

    def write_reg(self, reg: int, value: int) -> None:
        if reg == XZR:
            return
        self.regs[reg] = value & _MASK64

    # --- execution ------------------------------------------------------------

    def run(self, program: Program, start: int = 0,
            max_steps: int = 1_000_000) -> List[Instruction]:
        """Execute until HALT (or falling off the end); return the trace.

        Threaded-code path: the program is pre-decoded once (see
        :func:`compile_program`), the factories are bound to this
        machine's state, and the step loop is a bare indirect call.
        With ``REPRO_FUSION`` on (the default), chunk-start pcs are
        further replaced by codegen'd superinstructions (see
        :func:`compile_program_fused`).  Produces traces and
        architectural state bit-identical to :meth:`run_reference`.
        """
        factories = compile_program(program)
        base = [factory(self) for factory in factories]
        # Handlers read source registers by direct index; keep the XZR
        # invariant (always zero — no handler ever writes it) explicit.
        self.regs[XZR] = 0
        handlers = base
        weights = None
        # Imported here: repro.harness imports repro.isa.  Read per call
        # so tests can flip the knob.
        from repro.harness.envutil import knob

        if knob("REPRO_FUSION"):
            fused_factories, fused_weights = compile_program_fused(program)
            for i, fused_factory in enumerate(fused_factories):
                if fused_factory is None:
                    continue
                handler = fused_factory(self)
                if handler is None:
                    continue  # non-SparseMemory: chunk stays unfused
                if weights is None:
                    handlers = list(base)
                    weights = [1] * len(base)
                handlers[i] = handler
                weights[i] = fused_weights[i]
        pc = start
        steps = 0
        n = len(base)
        if weights is None:
            while pc < n:
                steps += 1
                if steps > max_steps:
                    raise MachineError("exceeded %d steps; runaway loop?"
                                       % max_steps)
                pc = handlers[pc]()
            return self.trace
        while pc < n:
            budget = steps + weights[pc]
            if budget > max_steps:
                # The chunk would blow the step budget mid-way; single-step
                # its instructions on the unfused handlers so the fault
                # fires after exactly ``max_steps`` retired instructions,
                # like the reference interpreter.
                steps += 1
                if steps > max_steps:
                    raise MachineError("exceeded %d steps; runaway loop?"
                                       % max_steps)
                pc = base[pc]()
            else:
                steps = budget
                pc = handlers[pc]()
        return self.trace

    def run_reference(self, program: Program, start: int = 0,
                      max_steps: int = 1_000_000) -> List[Instruction]:
        """The original interpreter: per-step opcode dispatch.

        Kept as the golden reference for the threaded-code path (and as
        the baseline the self-perf bench measures the speedup against).
        """
        pc = start
        steps = 0
        instructions = program.instructions
        labels = program.labels
        while pc < len(instructions):
            steps += 1
            if steps > max_steps:
                raise MachineError("exceeded %d steps; runaway loop?" % max_steps)
            inst = instructions[pc]
            next_pc = pc + 1
            opcode = inst.opcode

            if opcode is Opcode.HALT:
                self._emit(inst)
                break
            if opcode is Opcode.NOP:
                self._emit(inst)
            elif opcode is Opcode.MOV:
                value = self.read_reg(inst.src[0]) if inst.src else inst.imm
                self.write_reg(inst.dst[0], value)
                self._emit(inst)
            elif opcode in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.ORR,
                            Opcode.EOR, Opcode.MUL, Opcode.LSL, Opcode.LSR):
                lhs = self.read_reg(inst.src[0])
                rhs = self.read_reg(inst.src[1]) if len(inst.src) == 2 else inst.imm
                self.write_reg(inst.dst[0], _alu(opcode, lhs, rhs))
                self._emit(inst)
            elif opcode is Opcode.CMP:
                lhs = self.read_reg(inst.src[0])
                rhs = self.read_reg(inst.src[1]) if len(inst.src) == 2 else inst.imm
                result = (lhs - rhs) & _MASK64
                self.flags.zero = result == 0
                self.flags.negative = bool(result >> 63)
                self._emit(inst)
            elif opcode in (Opcode.LDR, Opcode.LDR_EDE):
                addr = self.read_reg(inst.src[0]) + inst.imm
                self.write_reg(inst.dst[0], self.memory.load(addr, inst.size))
                self._emit(inst, addr)
            elif opcode in (Opcode.STR, Opcode.STR_EDE):
                addr = self.read_reg(inst.src[1]) + inst.imm
                self.memory.store(addr, self.read_reg(inst.src[0]), inst.size)
                self._emit(inst, addr)
            elif opcode in (Opcode.STP, Opcode.STP_EDE):
                addr = self.read_reg(inst.src[2]) + inst.imm
                self.memory.store(addr, self.read_reg(inst.src[0]), 8)
                self.memory.store(addr + 8, self.read_reg(inst.src[1]), 8)
                self._emit(inst, addr)
            elif opcode in (Opcode.DC_CVAP, Opcode.DC_CVAP_EDE):
                addr = self.read_reg(inst.src[0])
                self._emit(inst, addr)
            elif opcode in (Opcode.DSB_SY, Opcode.DMB_ST, Opcode.DMB_SY,
                            Opcode.JOIN, Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS):
                self._emit(inst)
            elif opcode is Opcode.B:
                next_pc = _resolve_target(inst, labels)
                self._emit(inst)
            elif opcode is Opcode.BL:
                self.write_reg(30, pc + 1)
                next_pc = _resolve_target(inst, labels)
                self._emit(inst)
            elif opcode is Opcode.RET:
                next_pc = self.read_reg(30)
                self._emit(inst)
            elif opcode in (Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE):
                taken = _condition_holds(opcode, self.flags)
                if taken:
                    next_pc = _resolve_target(inst, labels)
                self._emit(inst)
            else:
                raise MachineError("unhandled opcode %s" % opcode.name)

            pc = next_pc
        return self.trace

    def _emit(self, inst: Instruction, addr: Optional[int] = None) -> None:
        if addr is not None and inst.addr != addr:
            inst = dataclasses.replace(inst, addr=addr)
        self.trace.append(inst)


def _alu(opcode: Opcode, lhs: int, rhs: int) -> int:
    if opcode is Opcode.ADD:
        return lhs + rhs
    if opcode is Opcode.SUB:
        return lhs - rhs
    if opcode is Opcode.AND:
        return lhs & rhs
    if opcode is Opcode.ORR:
        return lhs | rhs
    if opcode is Opcode.EOR:
        return lhs ^ rhs
    if opcode is Opcode.MUL:
        return lhs * rhs
    if opcode is Opcode.LSL:
        return lhs << (rhs & 63)
    if opcode is Opcode.LSR:
        return (lhs & _MASK64) >> (rhs & 63)
    raise MachineError("not an ALU opcode: %s" % opcode.name)


def _condition_holds(opcode: Opcode, flags: Flags) -> bool:
    if opcode is Opcode.B_EQ:
        return flags.zero
    if opcode is Opcode.B_NE:
        return not flags.zero
    if opcode is Opcode.B_LT:
        return flags.negative
    if opcode is Opcode.B_GE:
        return not flags.negative
    raise MachineError("not a conditional branch: %s" % opcode.name)


def _resolve_target(inst: Instruction, labels: Dict[str, int]) -> int:
    if inst.target is not None:
        try:
            return labels[inst.target]
        except KeyError:
            raise MachineError("undefined label %r" % (inst.target,)) from None
    return inst.imm
