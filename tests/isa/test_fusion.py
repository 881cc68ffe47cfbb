"""Superinstruction fusion: bit-identical to the unfused interpreters.

``REPRO_FUSION`` (default on) replaces straight-line handler runs with
codegen'd superinstructions (:func:`repro.isa.machine.compile_program_fused`).
Fusion is purely a speed lever: traces, architectural state and faults —
including the exact step at which a ``max_steps`` budget fires — must be
identical to the plain threaded-code path and the reference interpreter.
"""

import pytest

from repro.isa.assembler import assemble
from repro.isa.machine import (
    Machine,
    MachineError,
    SparseMemory,
    _block_leaders,
    compile_program_fused,
)
from tests.isa.test_threaded_machine import GOLDEN_PROGRAMS, run_both


@pytest.fixture
def fusion_on(monkeypatch):
    monkeypatch.setenv("REPRO_FUSION", "1")


@pytest.fixture
def fusion_off(monkeypatch):
    monkeypatch.setenv("REPRO_FUSION", "0")


def _run_fused_and_plain(source, max_steps=100_000):
    """Run with fusion on and off; assert both equal the reference."""
    import os

    program = assemble(source)
    ref = Machine()
    ref_trace = ref.run_reference(program, max_steps=max_steps)
    states = []
    for value in ("0", "1"):
        os.environ["REPRO_FUSION"] = value
        try:
            machine = Machine()
            trace = machine.run(program, max_steps=max_steps)
        finally:
            os.environ.pop("REPRO_FUSION", None)
        assert trace == ref_trace
        assert machine.regs == ref.regs
        assert machine.flags == ref.flags
        assert machine.memory.snapshot() == ref.memory.snapshot()
        states.append(machine)
    return states


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_golden_equality_fused(name, fusion_on):
    run_both(GOLDEN_PROGRAMS[name])


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_knob_off_and_on_agree(name):
    _run_fused_and_plain(GOLDEN_PROGRAMS[name])


class TestChunking:
    def test_straight_line_program_is_one_chunk(self):
        program = assemble("""
            mov x0, #1
            add x1, x0, #2
            eor x2, x1, x0
            halt
        """)
        factories, weights = compile_program_fused(program)
        assert factories[0] is not None
        assert weights[0] == 4
        assert factories[1] is factories[2] is factories[3] is None
        assert weights[1:] == [1, 1, 1]

    def test_leaders_break_chunks(self):
        program = assemble("""
            mov x0, #0
        loop:
            add x0, x0, #1
            cmp x0, #3
            b.ne loop
            halt
        """)
        leaders = _block_leaders(program)
        # pc 0 always; pc 1 is the label (and the branch target); pc 4
        # is the fall-through successor of the conditional branch.
        assert leaders == frozenset({0, 1, 4})
        factories, weights = compile_program_fused(program)
        # The loop body (pcs 1-3) fuses; the singleton prologue does not.
        assert factories[0] is None
        assert factories[1] is not None
        assert weights[1] == 3

    def test_singleton_chunks_stay_unfused(self):
        program = assemble("mov x0, #1\nhalt")
        factories, weights = compile_program_fused(program)
        # Two instructions fuse into one chunk of weight 2 — but a
        # 1-instruction remainder would stay on its handler.
        assert weights[0] in (1, 2)
        if factories[0] is None:
            assert weights == [1, 1]

    def test_fused_form_is_memoized(self):
        program = assemble("mov x0, #1\nadd x1, x0, #1\nhalt")
        first = compile_program_fused(program)
        second = compile_program_fused(program)
        assert first[0] is second[0]
        assert first[1] is second[1]


class TestFallbacks:
    def test_non_sparse_memory_runs_unfused_but_identical(self, fusion_on):
        """Memory-touching chunks bind only to a plain SparseMemory; a
        subclass machine gets ``None`` from the factory (the run loop then
        keeps the per-instruction handlers) and stays correct."""

        class ShadowMemory(SparseMemory):
            pass

        program = assemble(GOLDEN_PROGRAMS["tight_loop"])
        factories, weights = compile_program_fused(program)
        fused = [(pc, f) for pc, f in enumerate(factories) if f is not None]
        assert fused, "tight_loop should produce fused chunks"
        plain = Machine()
        shadow = Machine(memory=ShadowMemory())
        # The loop body touches memory: its factory declines the subclass.
        memory_chunks = [f for _, f in fused if f(shadow) is None]
        assert memory_chunks, "no memory-using chunk declined the subclass"
        assert all(f(plain) is not None for _, f in fused)

        ref = Machine()
        ref_trace = ref.run_reference(program)
        machine = Machine(memory=ShadowMemory())
        assert machine.run(program) == ref_trace
        assert machine.regs == ref.regs
        assert machine.memory.snapshot() == ref.memory.snapshot()

    def test_mid_chunk_entry_via_computed_ret(self):
        """A RET into the middle of a fused chunk lands on the retained
        per-instruction handler, not past the whole superinstruction."""
        source = """
            mov x0, #1
            mov x30, #6
            ret
            add x0, x0, #100
            add x0, x0, #1000
            add x0, x0, #10000
            add x0, x0, #3
            halt
        """
        for machine in _run_fused_and_plain(source):
            assert machine.regs[0] == 4  # only pcs 0, 6 executed


class TestFaultParity:
    """Fusion must fault exactly like the unfused interpreters."""

    def _both_raise(self, source, max_steps, fusion):
        import os

        program = assemble(source)
        with pytest.raises(MachineError) as ref_err:
            Machine().run_reference(program, max_steps=max_steps)
        os.environ["REPRO_FUSION"] = fusion
        try:
            with pytest.raises(MachineError) as thr_err:
                Machine().run(program, max_steps=max_steps)
        finally:
            os.environ.pop("REPRO_FUSION", None)
        assert str(thr_err.value) == str(ref_err.value)

    @pytest.mark.parametrize("fusion", ["0", "1"])
    def test_runaway_through_fused_loop(self, fusion):
        # The loop body fuses to weight > 1; the budget must still fire
        # after exactly max_steps retired instructions.
        self._both_raise("""
            mov x0, #0
        loop:
            add x0, x0, #1
            eor x1, x0, x0
            b loop
            halt
        """, max_steps=100, fusion=fusion)

    @pytest.mark.parametrize("fusion", ["0", "1"])
    def test_unaligned_load_mid_chunk(self, fusion):
        self._both_raise(
            "mov x0, #4097\nadd x1, x0, #0\nldr x2, [x0]\nhalt",
            max_steps=100, fusion=fusion)

    @pytest.mark.parametrize("fusion", ["0", "1"])
    def test_unaligned_stp_mid_chunk(self, fusion):
        self._both_raise(
            "mov x0, #4100\nmov x1, #1\nstp x1, x1, [x0]\nhalt",
            max_steps=100, fusion=fusion)

    def test_exact_budget_succeeds(self, fusion_on):
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


def test_fusion_enabled_default_and_knob(monkeypatch):
    """The knob reaches Machine.run: fused handlers are compiled only
    when it is on (the default), and junk is refused."""
    import repro.isa.machine as machine

    calls = []

    def spy(program):
        calls.append(program)
        return compile_program_fused(program)

    monkeypatch.setattr(machine, "compile_program_fused", spy)
    program = assemble(GOLDEN_PROGRAMS["figure4_undo_log"])
    monkeypatch.delenv("REPRO_FUSION", raising=False)
    Machine().run(program)
    assert len(calls) == 1
    monkeypatch.setenv("REPRO_FUSION", "0")
    Machine().run(program)
    assert len(calls) == 1
    monkeypatch.setenv("REPRO_FUSION", "bogus")
    with pytest.raises(ValueError, match="REPRO_FUSION"):
        Machine().run(program)
