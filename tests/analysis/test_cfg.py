"""Tests for CFG construction: blocks, successors, dominators, loops."""

import pytest

from repro.analysis.cfg import EXIT, CfgError, build_cfg
from repro.isa import instructions as ops
from repro.isa.assembler import assemble
from repro.isa.opcodes import Opcode


def _cfg(source):
    program = assemble(source)
    return build_cfg(program.instructions, program.labels)


class TestBasicBlocks:
    def test_straight_line_is_one_block(self):
        cfg = _cfg("""
            mov x0, #1
            mov x1, #2
            halt
        """)
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].successors == [EXIT]

    def test_diamond(self):
        cfg = _cfg("""
            cmp x0, #0
            b.eq other
            mov x1, #1
            b done
        other:
            mov x1, #2
        done:
            halt
        """)
        # entry, then-arm, else-arm, join.
        assert len(cfg.blocks) == 4
        entry, then_arm, else_arm, join = cfg.blocks
        assert sorted(entry.successors) == [then_arm.index, else_arm.index]
        assert then_arm.successors == [join.index]
        assert else_arm.successors == [join.index]
        assert sorted(join.predecessors) == [then_arm.index, else_arm.index]
        doms = cfg.dominators()
        assert doms[join.index] == {entry.index, join.index}

    def test_loop_back_edge_and_loop_blocks(self):
        cfg = _cfg("""
            mov x0, #4
        loop:
            sub x0, x0, #1
            cmp x0, #0
            b.ne loop
            halt
        """)
        back = cfg.back_edges()
        assert len(back) == 1
        tail, head = back[0]
        assert cfg.blocks[head].start == 1
        assert head in cfg.loop_blocks() and tail in cfg.loop_blocks()
        assert cfg.blocks[0].index not in cfg.loop_blocks()

    def test_unconditional_branch_has_no_fallthrough_edge(self):
        cfg = _cfg("""
            b end
            mov x0, #1
        end:
            halt
        """)
        entry = cfg.blocks[0]
        assert len(entry.successors) == 1
        skipped = cfg.block_of(1)
        assert skipped.index not in cfg.reachable_blocks()

    def test_bl_gets_both_target_and_fallthrough(self):
        cfg = _cfg("""
            bl callee
            halt
        callee:
            ret
        """)
        entry = cfg.blocks[0]
        assert len(entry.successors) == 2

    def test_undefined_label_raises(self):
        program = assemble("b nowhere\nhalt")
        with pytest.raises(CfgError):
            build_cfg(program.instructions, program.labels)

    def test_trace_branch_without_target_falls_through(self):
        # Dynamic traces carry resolved branches with target=None (see the
        # hazard workload); the recorded path is the fall-through.
        trace = [
            ops.cmp(0, imm=1),
            ops.Instruction(Opcode.B_NE, target=None, imm=0),
            ops.mov_imm(1, 7),
            ops.halt(),
        ]
        cfg = build_cfg(trace)
        branch_block = cfg.block_of(1)
        assert branch_block.successors == [cfg.block_of(2).index]

    def test_successor_sites_cross_blocks(self):
        cfg = _cfg("""
            cmp x0, #0
            b.eq done
            mov x1, #1
        done:
            halt
        """)
        # The conditional branch may be followed by either block start.
        assert sorted(cfg.successor_sites(1)) == [2, 3]
        # Mid-block: the next instruction only.
        assert cfg.successor_sites(0) == [1]

    def test_empty_sequence(self):
        cfg = build_cfg([])
        assert cfg.blocks == []


class TestSolve:
    def test_reaching_sets_over_a_loop(self):
        cfg = _cfg("""
            mov x0, #4
        loop:
            sub x0, x0, #1
            cmp x0, #0
            b.ne loop
            b done
            mov x1, #9
        done:
            halt
        """)
        recorded = []

        def transfer(index, state, record):
            if record:
                recorded.append(index)
            return state | {index}

        in_states = cfg.solve(frozenset(), transfer, frozenset.union)
        stranded = cfg.block_of(5).index
        assert stranded not in in_states
        assert recorded == sorted(set(range(len(cfg.blocks))) - {stranded})
        loop = cfg.block_of(1).index
        # The loop head is reached from the entry and from its own back edge.
        assert in_states[loop] == {cfg.block_of(0).index, loop}
        assert in_states[cfg.block_of(6).index] == {0, loop, cfg.block_of(4).index}

    def test_empty_program(self):
        cfg = build_cfg([])
        assert cfg.solve(frozenset(), lambda b, s, r: s, frozenset.union) == {}
