"""The compiled interpreter: bit-identical to the reference oracle.

`Machine.run` (codegen'd chunk and single-instruction handlers, operands
bound at compile time) must be bit-identical to `Machine.run_reference`
(the seed per-step dispatch interpreter) — same trace objects, same
architectural state, same faults, including the exact step at which a
``max_steps`` budget fires — for every supported construct.
"""

import random

import pytest

from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction
from repro.isa.machine import (
    Machine,
    MachineError,
    SparseMemory,
    _block_leaders,
    compile_program,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import XZR


def run_both(source, max_steps=100_000):
    """Run a program through both interpreters; return both machines."""
    program = assemble(source)
    ref = Machine()
    thr = Machine()
    ref_trace = ref.run_reference(program, max_steps=max_steps)
    thr_trace = thr.run(program, max_steps=max_steps)
    assert thr_trace == ref_trace
    assert thr.regs == ref.regs
    assert thr.flags == ref.flags
    assert thr.memory.snapshot() == ref.memory.snapshot()
    return ref, thr


GOLDEN_PROGRAMS = {
    "figure4_undo_log": """
        mov x0, #8519680
        mov x2, #9568256
        ldr x1, [x0]
        stp x0, x1, [x2]
        dc cvap, x2
        dsb sy
        mov x3, #6
        str x3, [x0]
        dc cvap, x0
        halt
    """,
    "figure7_ede": """
        mov x0, #8519680
        mov x2, #9568256
        ldr x1, [x0]
        stp x0, x1, [x2]
        dc cvap (1, 0), x2
        mov x3, #6
        str (0, 1), x3, [x0]
        dc cvap, x0
        halt
    """,
    "tight_loop": """
        mov x0, #4096
        mov x1, #0
    loop:
        str x1, [x0]
        ldr x2, [x0]
        stp x1, x2, [x0, #8]
        add x0, x0, #32
        add x1, x1, #3
        cmp x1, #90
        b.ne loop
        halt
    """,
    "call_ret_chain": """
        mov x0, #1
        bl callee
        add x2, x0, #100
        bl callee
        b finish
    callee:
        add x0, x0, #10
        ret
    finish:
        halt
    """,
    "flags_negative_path": """
        mov x0, #3
        cmp x0, #5
        b.lt less
        mov x1, #111
        b done
    less:
        mov x1, #222
    done:
        cmp x0, #3
        b.eq equal
        mov x3, #1
    equal:
        cmp xzr, #0
        b.ge end
        mov x4, #9
    end:
        halt
    """,
    "xzr_sinks_and_sources": """
        mov x0, #7
        add xzr, x0, #1
        add x1, xzr, #0
        mov xzr, #42
        mov x2, xzr
        mul x3, x0, x0
        eor x3, x3, x0
        lsl x4, x0, #5
        lsr x5, x4, #2
        orr x6, x4, x5
        and x7, x6, x0
        halt
    """,
    "wraparound_and_barriers": """
        mov x0, #0
        sub x1, x0, #1
        dmb st
        dmb sy
        join (2, 1, 0)
        wait_key (2)
        wait_all_keys
        halt
    """,
    "ede_memory_variants": """
        mov x0, #4096
        mov x3, #77
        dc cvap (1, 0), x0
        str (0, 1), x3, [x0]
        ldr (2, 0), x4, [x0]
        stp (0, 2), x3, x4, [x0, #16]
        halt
    """,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_golden_equality(name):
    run_both(GOLDEN_PROGRAMS[name])


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_golden_equality_at_every_budget(name):
    """Every truncated budget: a chunk that would overrun it single-steps,
    so the fault, trace and state match the oracle at each step."""
    program = assemble(GOLDEN_PROGRAMS[name])
    retired = len(Machine().run_reference(program))
    for budget in range(1, retired + 1):
        ref = _outcome(Machine(), "run_reference", program, budget)
        got = _outcome(Machine(), "run", program, budget)
        assert got == ref, budget
        assert (ref[4] is None) == (budget == retired)


def test_random_alu_programs_match():
    rng = random.Random(2021)
    ops = ("add", "sub", "and", "orr", "eor", "mul", "lsl", "lsr")
    for _ in range(10):
        lines = ["mov x%d, #%d" % (r, rng.randrange(1 << 12))
                 for r in range(8)]
        for _ in range(40):
            op = rng.choice(ops)
            rd, rn, rm = (rng.randrange(8) for _ in range(3))
            if op in ("lsl", "lsr") or rng.random() < 0.4:
                lines.append("%s x%d, x%d, #%d"
                             % (op, rd, rn, rng.randrange(64)))
            else:
                lines.append("%s x%d, x%d, x%d" % (op, rd, rn, rm))
        lines.append("halt")
        run_both("\n".join(lines))


def test_branch_edge_cases_match():
    # Every condition on both sides of the zero/negative boundary.
    for lhs, rhs in ((0, 0), (1, 0), (0, 1), (5, 5), (4, 5), (6, 5)):
        for cond in ("eq", "ne", "lt", "ge"):
            run_both("""
                mov x0, #%d
                cmp x0, #%d
                b.%s taken
                mov x1, #1
                b out
            taken:
                mov x1, #2
            out:
                halt
            """ % (lhs, rhs, cond))


def _outcome(machine, method, program, max_steps):
    """Everything observable after one run: trace, state and fault text."""
    try:
        getattr(machine, method)(program, max_steps=max_steps)
        fault = None
    except MachineError as err:
        fault = str(err)
    return (machine.trace, machine.regs, machine.flags,
            machine.memory.snapshot(), fault)


_DATA_REGS = range(6)         # x0-x5: ALU and memory data
_BASE = 6                     # x6: memory base, never written
_LOADS = (Opcode.LDR, Opcode.LDR_EDE)
_STORES = (Opcode.STR, Opcode.STR_EDE)
_ALU = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.ORR,
        Opcode.EOR, Opcode.MUL, Opcode.LSL, Opcode.LSR)
_BRANCHES = (Opcode.B, Opcode.BL, Opcode.B_EQ, Opcode.B_NE,
             Opcode.B_LT, Opcode.B_GE)


def _random_program(rng, length=40):
    """A seeded random program over everything the interpreter handles.

    Memory ops address ``x6 + offset``; most offsets keep 8-byte
    accesses aligned, a few do not and must fault identically.  Sub-word
    accesses are built directly with ``size=1/2/4``.  Branches go forward
    and backward to labels scattered through the program, and a few name
    a label that does not exist.
    """
    label_at = {rng.randrange(length + 1): "L%d" % i for i in range(6)}
    labels = sorted(label_at.values())
    program = Program()
    program.add(Instruction(Opcode.MOV, dst=(_BASE,), imm=0x1000))
    # Seed the registers and the eight words at x6 with 64-bit noise, so
    # loads of every size return non-zero bytes.
    for reg in _DATA_REGS:
        program.add(Instruction(Opcode.MOV, dst=(reg,),
                                imm=rng.getrandbits(64)))
    for word in range(4):
        program.add(Instruction(Opcode.STP, src=(2 * word % 6,
                                                 (2 * word + 1) % 6, _BASE),
                                imm=16 * word, size=16))

    def src_reg():
        return rng.choice(list(_DATA_REGS) + [_BASE, XZR])

    def dst_reg():
        return XZR if rng.random() < 0.1 else rng.choice(_DATA_REGS)

    def offset(size):
        if rng.random() < 0.05:
            return rng.randrange(64)              # may be unaligned
        return rng.randrange(0, 64, size)

    for pc in range(length):
        if pc in label_at:
            program.label(label_at[pc])
        kind = rng.random()
        if kind < 0.3:
            opcode = rng.choice(_ALU)
            if rng.random() < 0.5:
                inst = Instruction(opcode, dst=(dst_reg(),),
                                   src=(src_reg(), src_reg()))
            else:
                inst = Instruction(opcode, dst=(dst_reg(),), src=(src_reg(),),
                                   imm=rng.randrange(-8, 1 << 12))
        elif kind < 0.4:
            if rng.random() < 0.5:
                inst = Instruction(Opcode.CMP, src=(src_reg(), src_reg()))
            else:
                inst = Instruction(Opcode.CMP, src=(src_reg(),),
                                   imm=rng.randrange(-4, 64))
        elif kind < 0.47:
            if rng.random() < 0.5:
                inst = Instruction(Opcode.MOV, dst=(dst_reg(),),
                                   src=(src_reg(),))
            else:
                inst = Instruction(Opcode.MOV, dst=(dst_reg(),),
                                   imm=rng.randrange(-4, 1 << 16))
        elif kind < 0.67:
            size = rng.choice((1, 2, 4, 8, 8))
            if rng.random() < 0.5:
                inst = Instruction(rng.choice(_LOADS), dst=(dst_reg(),),
                                   src=(_BASE,), imm=offset(size), size=size)
            else:
                inst = Instruction(rng.choice(_STORES),
                                   src=(src_reg(), _BASE),
                                   imm=offset(size), size=size)
        elif kind < 0.72:
            inst = Instruction(Opcode.STP, src=(src_reg(), src_reg(), _BASE),
                               imm=offset(8), size=16)
        elif kind < 0.75:
            inst = Instruction(Opcode.DC_CVAP, src=(_BASE,))
        elif kind < 0.9:
            target = (rng.choice(labels) if rng.random() < 0.9
                      else "nowhere")
            inst = Instruction(rng.choice(_BRANCHES), target=target)
        elif kind < 0.95:
            inst = Instruction(Opcode.RET)
        else:
            inst = Instruction(rng.choice((Opcode.NOP, Opcode.DMB_ST,
                                           Opcode.HALT)))
        program.add(inst)
    if length in label_at:
        program.label(label_at[length])
    program.add(Instruction(Opcode.HALT))
    return program


def test_random_programs_match_reference():
    """Differential test against the oracle on seeded random programs,
    each at its full step budget and at a truncated one."""
    rng = random.Random(1705)
    seen = set()
    for _ in range(300):
        program = _random_program(rng)
        full = 400
        ref = _outcome(Machine(), "run_reference", program, full)
        truncated = rng.randrange(1, len(ref[0]) + 2)
        for budget in (full, truncated):
            ref = _outcome(Machine(), "run_reference", program, budget)
            got = _outcome(Machine(), "run", program, budget)
            assert got == ref, (budget, program.listing())
            fault = ref[4]
            seen.add(fault.split(" ")[0] if fault else "halt")
            seen.update(("subword", i.opcode) for i in ref[0]
                        if i.size in (1, 2, 4))
            seen.update(i.opcode for i in ref[0])
    # The mix reached every construct the programs are meant to cover.
    assert {"halt", "exceeded", "unaligned", "undefined"} <= seen
    assert {("subword", op) for op in _LOADS + _STORES} <= seen
    assert set(_BRANCHES + _ALU) | {Opcode.RET, Opcode.STP} <= seen


def test_non_sparse_memory_is_refused():
    """The compiled handlers write SparseMemory's word dictionary
    directly, so any other memory is refused up front."""

    class ShadowMemory(SparseMemory):
        pass

    with pytest.raises(TypeError, match="ShadowMemory"):
        Machine(memory=ShadowMemory())
    assert Machine(memory=SparseMemory()).run(
        assemble("mov x0, #1\nhalt"))


class TestFaultParity:
    """Both interpreters fail identically: same message, and the same
    trace and state at the fault."""

    def _both_raise(self, source, max_steps=100):
        program = assemble(source)
        ref = _outcome(Machine(), "run_reference", program, max_steps)
        got = _outcome(Machine(), "run", program, max_steps)
        assert ref[4] is not None
        assert got == ref
        return got

    def test_runaway(self):
        self._both_raise("loop:\nb loop\nhalt")

    def test_unaligned_load(self):
        self._both_raise("mov x0, #4097\nldr x1, [x0]\nhalt")

    def test_unaligned_store(self):
        self._both_raise("mov x0, #4097\nmov x1, #1\nstr x1, [x0]\nhalt")

    def test_unaligned_stp(self):
        self._both_raise(
            "mov x0, #4100\nmov x1, #1\nstp x1, x1, [x0]\nhalt")

    def test_runaway_through_fused_loop(self):
        # The loop body is one chunk of weight > 1; the budget must still
        # fire after exactly max_steps retired instructions.
        self._both_raise("""
            mov x0, #0
        loop:
            add x0, x0, #1
            eor x1, x0, x0
            b loop
            halt
        """)

    def test_unaligned_load_mid_chunk(self):
        self._both_raise("mov x0, #4097\nadd x1, x0, #0\nldr x2, [x0]\nhalt")

    def test_unaligned_stp_mid_chunk(self):
        self._both_raise(
            "mov x0, #4100\nmov x1, #1\nstp x1, x1, [x0]\nhalt")

    def test_exact_budget_succeeds(self):
        # 11 retired instructions exactly; a budget of 11 passes, 10 faults.
        source = """
            mov x0, #0
        loop:
            add x0, x0, #1
            cmp x0, #3
            b.ne loop
            halt
        """
        program = assemble(source)
        retired = len(Machine().run_reference(program))
        trace = Machine().run(program, max_steps=retired)
        assert len(trace) == retired
        with pytest.raises(MachineError):
            Machine().run(assemble(source), max_steps=retired - 1)

    @pytest.mark.parametrize("cond, lhs, rhs", [
        ("eq", 1, 0), ("ne", 0, 0), ("lt", 2, 1), ("ge", 0, 1)])
    def test_untaken_branch_to_undefined_label_falls_through(
            self, cond, lhs, rhs):
        # The reference resolves a conditional target only when taken.
        ref, thr = run_both("""
            mov x0, #%d
            cmp x0, #%d
            b.%s nowhere
            mov x1, #5
            halt
        """ % (lhs, rhs, cond))
        assert thr.regs[1] == 5

    @pytest.mark.parametrize("cond, lhs, rhs", [
        ("eq", 0, 0), ("ne", 1, 0), ("lt", 0, 1), ("ge", 2, 1)])
    def test_taken_branch_to_undefined_label_faults(self, cond, lhs, rhs):
        self._both_raise("mov x0, #%d\ncmp x0, #%d\nb.%s nowhere\nhalt"
                         % (lhs, rhs, cond))

    def test_bl_to_undefined_label_links_before_faulting(self):
        # The reference writes x30 before it resolves the label.
        _, regs, _, _, fault = self._both_raise("mov x0, #1\nbl nowhere\nhalt")
        assert regs[30] == 2
        assert fault == "undefined label 'nowhere'"

    def test_b_to_undefined_label_faults(self):
        self._both_raise("mov x0, #1\nb nowhere\nhalt")


class TestCompileCache:
    def test_compiled_form_is_memoized(self):
        program = assemble("mov x0, #1\nhalt")
        assert compile_program(program) is compile_program(program)

    def test_growing_the_program_recompiles(self):
        program = assemble("mov x0, #1\nhalt")
        first = compile_program(program)
        machine = Machine()
        machine.run(program)
        assert machine.regs[0] == 1

        from repro.isa.instructions import halt, mov_imm
        program.add(mov_imm(2, 9))
        program.add(halt())
        assert compile_program(program) is not first
        # The reference and threaded paths agree on the grown program too.
        ref, thr = Machine(), Machine()
        assert (thr.run(program) == ref.run_reference(program))

    def test_repeated_runs_accumulate_trace(self):
        program = assemble("mov x0, #1\nhalt")
        ref, thr = Machine(), Machine()
        for _ in range(3):
            ref.run_reference(program)
            thr.run(program)
        assert thr.trace == ref.trace
        assert len(thr.trace) == 6


class TestChunking:
    LOOP = """
        mov x0, #0
    loop:
        add x0, x0, #1
        cmp x0, #3
        b.ne loop
        halt
    """

    def test_straight_line_program_is_one_chunk(self):
        program = assemble("""
            mov x0, #1
            add x1, x0, #2
            eor x2, x1, x0
            halt
        """)
        bind, weights = compile_program(program)
        assert weights == [4, 1, 1, 1]
        handlers, singles = bind(Machine())
        assert handlers[0] is not singles[0]
        assert all(handlers[pc] is singles[pc] for pc in (1, 2, 3))

    def test_leaders_break_chunks(self):
        program = assemble(self.LOOP)
        # pc 0 always; pc 1 is the label (and the branch target); pc 4
        # is the fall-through successor of the conditional branch.
        assert _block_leaders(program) == frozenset({0, 1, 4})
        bind, weights = compile_program(program)
        # The loop body (pcs 1-3) is one chunk.
        assert weights[1:4] == [3, 1, 1]
        handlers, singles = bind(Machine())
        assert handlers[1] is not singles[1]
        assert handlers[2] is singles[2] and handlers[3] is singles[3]

    def test_singleton_chunks_stay_unfused(self):
        # The prologue (pc 0) and the HALT (pc 4) are one-instruction
        # blocks: they get no chunk and run on their single handlers.
        bind, weights = compile_program(assemble(self.LOOP))
        assert weights[0] == weights[4] == 1
        handlers, singles = bind(Machine())
        assert handlers[0] is singles[0]
        assert handlers[4] is singles[4]
        bind, weights = compile_program(assemble("halt"))
        assert weights == [1]
        handlers, singles = bind(Machine())
        assert handlers == singles

    def test_fused_form_is_memoized(self):
        # Codegen runs once per program: a second compile returns the
        # same form, and every machine binds the same code objects.
        program = assemble("mov x0, #1\nadd x1, x0, #1\nhalt")
        first = compile_program(program)
        second = compile_program(program)
        assert first[0] is second[0]
        assert first[1] is second[1]
        one, _ = first[0](Machine())
        two, _ = first[0](Machine())
        assert one[0] is not two[0]
        assert one[0].__code__ is two[0].__code__

    def test_mid_chunk_entry_via_computed_ret(self):
        """A RET into the middle of a chunk lands on that pc's single
        handler, not past the whole chunk."""
        ref, thr = run_both("""
            mov x0, #1
            mov x30, #6
            ret
            add x0, x0, #100
            add x0, x0, #1000
            add x0, x0, #10000
            add x0, x0, #3
            halt
        """)
        assert thr.regs[0] == 4  # only pcs 0, 6 executed


def test_trace_objects_expose_timing_metadata():
    """Instructions rewritten with resolved addresses keep the precomputed
    timing-model views (the fast copy must not skip them)."""
    program = assemble("mov x0, #4096\nmov x1, #5\nstr x1, [x0]\nhalt")
    trace = Machine().run(program)
    store = next(i for i in trace if i.opcode is Opcode.STR)
    assert store.addr == 4096
    assert store.timing_src_regs == (1, 0)
    assert store.consumer_keys() == ()
    assert store.enters_iq
