"""Tests for Program and TraceBuilder."""

import pytest

from repro.isa import instructions as ops
from repro.isa.opcodes import Opcode
from repro.isa.program import Program, TraceBuilder


class TestProgram:
    def test_add_returns_index(self):
        program = Program()
        assert program.add(ops.nop()) == 0
        assert program.add(ops.halt()) == 1
        assert len(program) == 2

    def test_label_points_to_next_instruction(self):
        program = Program()
        program.add(ops.nop())
        program.label("here")
        program.add(ops.halt())
        assert program.resolve("here") == 1

    def test_trailing_label(self):
        program = Program()
        program.add(ops.nop())
        program.label("end")
        assert program.resolve("end") == 1
        assert "end:" in program.listing()

    def test_iteration_and_indexing(self):
        program = Program()
        program.add(ops.nop())
        program.add(ops.halt())
        assert [i.opcode for i in program] == [Opcode.NOP, Opcode.HALT]
        assert program[1].opcode is Opcode.HALT

    def test_labels_copy_is_isolated(self):
        program = Program()
        program.label("a")
        labels = program.labels
        labels["b"] = 5
        with pytest.raises(KeyError):
            program.resolve("b")


class TestTraceBuilder:
    def test_memory_instruction_requires_address(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError):
            builder.emit(ops.store(1, 0))  # no addr

    def test_finish_appends_halt_once(self):
        builder = TraceBuilder()
        builder.emit(ops.nop())
        trace = builder.finish()
        assert trace[-1].opcode is Opcode.HALT
        assert builder.finish()[-1].opcode is Opcode.HALT
        assert sum(1 for i in builder.trace
                   if i.opcode is Opcode.HALT) == 1

    def test_marker_tracks_position(self):
        builder = TraceBuilder()
        assert builder.marker() == 0
        builder.emit(ops.nop())
        assert builder.marker() == 1

    def test_emit_all(self):
        builder = TraceBuilder()
        builder.emit_all([ops.nop(), ops.mov_imm(1, 2)])
        assert len(builder) == 2

    def test_emit_returns_sequence_number(self):
        builder = TraceBuilder()
        assert builder.emit(ops.nop()) == 0
        assert builder.emit(ops.nop()) == 1

