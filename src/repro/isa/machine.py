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

One interpreter, one oracle
---------------------------

:meth:`Machine.run` executes code generated from the program.
:func:`compile_program` turns every instruction into Python source through
one template (:func:`_fused_lines`), with operand registers, immediates,
ALU expressions and branch targets folded in as constants.  That source
makes two kinds of handler:

* a *chunk* handler for each basic block (leaders are pc 0, label
  targets, branch targets and control-transfer successors).  It runs the
  whole block as one flat function, so a block costs a single indirect
  call;
* a *single* handler for every pc, which runs that one instruction.  A
  computed ``RET`` into the middle of a block lands on it, and the step
  loop single-steps on it when a whole chunk would overrun ``max_steps``.
  That way the budget is charged per retired instruction, not per chunk.

The compiled form is ``exec``'d once and memoized on the program.  Aligned
8-byte loads and stores operate on :class:`SparseMemory`'s word
dictionary directly, so the machine accepts only a plain
:class:`SparseMemory`.

:meth:`Machine.run_reference` is the original per-step dispatch
interpreter, kept as the oracle.  Both produce bit-identical traces,
architectural state and faults.  ``tests/isa/test_threaded_machine.py``
checks that on golden and seeded random programs, and
``benchmarks/bench_selfperf.py`` gates the speedup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
# Code generation
# ---------------------------------------------------------------------------

#: Opcodes that only emit the instruction (no architectural effect).
_EMIT_ONLY_OPCODES = frozenset((
    Opcode.NOP, Opcode.DSB_SY, Opcode.DMB_ST, Opcode.DMB_SY,
    Opcode.JOIN, Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS,
))

#: Opcodes that transfer control: they end a chunk with a pc-returning
#: statement.
_CONTROL_OPCODES = frozenset((
    Opcode.B, Opcode.BL, Opcode.RET,
    Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE,
    Opcode.HALT,
))

#: Unmasked ALU source expressions; codegen applies the 64-bit mask on
#: writeback, like ``write_reg`` in the reference interpreter.
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

#: Source for a taken conditional branch, keyed by opcode: the flag it
#: reads and whether it branches when that flag is set.
_CONDITIONS: Dict[Opcode, Tuple[str, bool]] = {
    Opcode.B_EQ: ("flags.zero", True),
    Opcode.B_NE: ("flags.zero", False),
    Opcode.B_LT: ("flags.negative", True),
    Opcode.B_GE: ("flags.negative", False),
}


#: ``dataclasses.replace(inst, addr=addr)`` without the constructor's
#: shape lookup; the dominant per-memory-op cost in the interpreter.
_with_addr = Instruction.with_addr


def _resolve_static_target(inst: Instruction,
                           labels: Dict[str, int]) -> Optional[int]:
    """Branch target as a trace index, or None for an undefined label
    (which faults only when the branch is taken, like the reference)."""
    if inst.target is not None:
        return labels.get(inst.target)
    return inst.imm


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


def _raise_line(message: str) -> str:
    return "raise MachineError(%r)" % message


def _fused_lines(inst: Instruction, pc: int, labels: Dict[str, int],
                 program_len: int):
    """Codegen template for one instruction: its source lines.

    Every instruction has a template; those of :data:`_CONTROL_OPCODES`
    end by returning or raising.  The statements mirror
    :meth:`Machine.run_reference` bit for bit, including fault points,
    fault messages and trace-append order.
    """
    opcode = inst.opcode
    nxt = pc + 1
    imm = inst.imm
    static_addr = inst.addr
    emit = "append(_i%d)" % pc

    if opcode is Opcode.HALT:
        return [emit, "return %d" % program_len]

    if opcode in _EMIT_ONLY_OPCODES:
        return [emit]

    if opcode is Opcode.MOV:
        rd = inst.dst[0]
        if rd == XZR:
            return [emit]
        if inst.src:
            move = "regs[%d] = regs[%d]" % (rd, inst.src[0])
        else:
            move = "regs[%d] = %d" % (rd, imm & _MASK64)
        return [move, emit]

    if opcode in _ALU_EXPRS:
        rd = inst.dst[0]
        if rd == XZR:
            # The ALU expressions have no side effects: skip dead work.
            return [emit]
        rhs = ("regs[%d]" % inst.src[1] if len(inst.src) == 2
               else repr(imm))
        expr = _ALU_EXPRS[opcode] % ("regs[%d]" % inst.src[0], rhs)
        return ["regs[%d] = %s & _MASK64" % (rd, expr), emit]

    if opcode is Opcode.CMP:
        rhs = ("regs[%d]" % inst.src[1] if len(inst.src) == 2
               else repr(imm))
        return ["_t = (regs[%d] - %s) & _MASK64" % (inst.src[0], rhs),
                "flags.zero = _t == 0",
                "flags.negative = _t >= _SIGN64",
                emit]

    if opcode in (Opcode.LDR, Opcode.LDR_EDE):
        rd = inst.dst[0]
        lines = ["_a = regs[%d] + %d" % (inst.src[0], imm)]
        if inst.size == 8:
            lines += ["if _a % 8:",
                      "    raise MachineError("
                      "'unaligned 8-byte load at %#x' % _a)"]
            if rd != XZR:
                lines.append("regs[%d] = get(_a, 0)" % rd)
        elif rd == XZR:
            lines.append("load(_a, %d)" % inst.size)
        else:
            lines.append("regs[%d] = load(_a, %d) & _MASK64"
                         % (rd, inst.size))
        return lines + [_emit_trace_line(pc, static_addr, "_a")]

    if opcode in (Opcode.STR, Opcode.STR_EDE):
        lines = ["_a = regs[%d] + %d" % (inst.src[1], imm)]
        if inst.size == 8:
            lines += ["if _a % 8:",
                      "    raise MachineError("
                      "'unaligned 8-byte store at %#x' % _a)",
                      "words[_a] = regs[%d] & _MASK64" % inst.src[0]]
        else:
            lines.append("store(_a, regs[%d], %d)"
                         % (inst.src[0], inst.size))
        return lines + [_emit_trace_line(pc, static_addr, "_a")]

    if opcode in (Opcode.STP, Opcode.STP_EDE):
        return ["_a = regs[%d] + %d" % (inst.src[2], imm),
                "if _a % 8:",
                "    raise MachineError("
                "'unaligned 8-byte store at %#x' % _a)",
                "words[_a] = regs[%d] & _MASK64" % inst.src[0],
                "words[_a + 8] = regs[%d] & _MASK64" % inst.src[1],
                _emit_trace_line(pc, static_addr, "_a")]

    if opcode in (Opcode.DC_CVAP, Opcode.DC_CVAP_EDE):
        return ["_a = regs[%d]" % inst.src[0],
                _emit_trace_line(pc, static_addr, "_a")]

    if opcode is Opcode.RET:
        return [emit, "return regs[30]"]

    target = _resolve_static_target(inst, labels)
    undefined = _raise_line("undefined label %r" % (inst.target,))

    if opcode in _CONDITIONS:
        flag, when_set = _CONDITIONS[opcode]
        if target is None:
            # The reference resolves the label only when taken.
            return ["if %s%s:" % ("" if when_set else "not ", flag),
                    "    " + undefined, emit, "return %d" % nxt]
        taken, fallthrough = (target, nxt) if when_set else (nxt, target)
        return [emit, "return %d if %s else %d" % (taken, flag, fallthrough)]

    if opcode in (Opcode.B, Opcode.BL):
        # BL links before it resolves the label, like the reference.
        link = ["regs[30] = %d" % nxt] if opcode is Opcode.BL else []
        if target is None:
            return link + [undefined]
        return link + [emit, "return %d" % target]

    return [_raise_line("unhandled opcode %s" % opcode.name)]


def compile_program(program: Program):
    """Generate and ``exec`` the handlers for ``program``.

    Returns ``(bind, weights)``.  ``bind(machine)`` binds one machine's
    state (registers, flags, memory, trace) and returns ``(handlers,
    singles)``, both indexed by pc: ``singles[pc]`` runs instruction
    ``pc`` alone, and ``handlers[pc]`` is the chunk starting there at a
    chunk start and ``singles[pc]`` elsewhere.  ``weights[pc]`` is the
    number of instructions ``handlers[pc]`` retires.  Every handler
    returns the next pc.

    The compiled form is memoized on the program and invalidated when
    the program grows or its labels change, so repeated
    :meth:`Machine.run` calls pay the codegen cost once.
    """
    labels = program.labels
    cached = getattr(program, "_compiled", None)
    if cached is not None and cached[0] == len(program) and cached[1] == labels:
        return cached[2]
    instructions = program.instructions
    n = len(instructions)
    leaders = _block_leaders(program)
    templates = [_fused_lines(inst, pc, labels, n)
                 for pc, inst in enumerate(instructions)]

    def handler_source(name: str, first: int, last: int) -> List[str]:
        body: List[str] = []
        for lines in templates[first:last]:
            body.extend(lines)
        if instructions[last - 1].opcode not in _CONTROL_OPCODES:
            body.append("return %d" % last)
        return ["    def %s():" % name] + ["        " + line for line in body]

    source = ["def _bind(machine):",
              "    regs = machine.regs",
              "    flags = machine.flags",
              "    append = machine.trace.append",
              "    memory = machine.memory",
              "    words = memory._words",
              "    get = words.get",
              "    load = memory.load",
              "    store = memory.store"]
    for pc in range(n):
        source.extend(handler_source("_s%d" % pc, pc, pc + 1))
    handlers = ["_s%d" % pc for pc in range(n)]
    weights = [1] * n
    pc = 0
    while pc < n:
        start = pc
        pc += 1
        while pc < n and pc not in leaders:
            pc += 1
        if pc - start > 1:
            source.extend(handler_source("_c%d" % start, start, pc))
            handlers[start] = "_c%d" % start
            weights[start] = pc - start
    source.append("    return [%s], [%s]" % (
        ", ".join(handlers), ", ".join("_s%d" % pc for pc in range(n))))
    namespace = {"_MASK64": _MASK64, "_SIGN64": _SIGN64,
                 "MachineError": MachineError, "_with_addr": _with_addr}
    namespace.update(("_i%d" % pc, inst) for pc, inst in enumerate(instructions))
    exec(compile("\n".join(source),
                 "<machine:%s>" % getattr(program, "name", "program"),
                 "exec"), namespace)
    compiled = (namespace["_bind"], weights)
    program._compiled = (n, labels, compiled)
    return compiled


class Machine:
    """Executes a :class:`Program` and emits a dynamic trace."""

    def __init__(self, memory: Optional[SparseMemory] = None):
        if memory is None:
            memory = SparseMemory()
        elif type(memory) is not SparseMemory:
            # The compiled handlers use the word dictionary directly.
            raise TypeError("Machine memory must be a SparseMemory, not %s"
                            % type(memory).__name__)
        self.regs = [0] * NUM_REG_ENCODINGS
        self.flags = Flags()
        self.memory = memory
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

        Runs the compiled handlers (see :func:`compile_program`).  Produces
        traces, architectural state and faults bit-identical to
        :meth:`run_reference`.
        """
        bind, weights = compile_program(program)
        handlers, singles = bind(self)
        # Handlers read source registers by direct index; keep the XZR
        # invariant (always zero — no handler ever writes it) explicit.
        self.regs[XZR] = 0
        pc = start
        steps = 0
        n = len(weights)
        while pc < n:
            budget = steps + weights[pc]
            if budget > max_steps:
                # The chunk would overrun the budget; single-step so the
                # fault fires after exactly ``max_steps`` instructions.
                steps += 1
                if steps > max_steps:
                    raise MachineError("exceeded %d steps; runaway loop?"
                                       % max_steps)
                pc = singles[pc]()
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
