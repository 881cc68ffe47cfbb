"""Tests for the persistent framework facade."""

import pytest

from repro.consistency.crash_sim import CrashInjector
from repro.consistency.obligations import LOG_BEFORE_STORE, PERSIST_BEFORE_COMMIT
from repro.memory.persist_domain import PersistLog
from repro.nvmfw import codegen
from repro.nvmfw.framework import PersistentFramework
from repro.workloads import Scale
from repro.workloads.base import build


def framework(mode="dsb"):
    return PersistentFramework(mode)


class TestFunctionalMemory:
    def test_raw_store_peek(self):
        fw = framework()
        fw.raw_store(0x80001000, 99)
        assert fw.peek(0x80001000) == 99

    def test_peek_default_zero(self):
        assert framework().peek(0x80005000) == 0

    def test_read_emits_instructions(self):
        fw = framework()
        fw.raw_store(0x80001000, 7)
        before = len(fw.builder)
        assert fw.read(0x80001000) == 7
        assert len(fw.builder) == before + 2  # mov + ldr

    def test_values_truncate_to_64_bits(self):
        fw = framework()
        fw.raw_store(0x80001000, 1 << 70)
        assert fw.peek(0x80001000) == 0

    @pytest.mark.parametrize("base", [0x80001000, 0x80001004])
    def test_raw_store_words_equals_a_raw_store_loop(self, base):
        values = [5, -1, 1 << 70, (1 << 64) - 1, 0, 7]
        loop, bulk = framework(), framework()
        for fw in (loop, bulk):
            fw.raw_store(0x80001008, 99)  # overwritten, keeps its position
        for index, value in enumerate(values):
            loop.raw_store(base + 8 * index, value)
        bulk.raw_store_words(base, values)
        assert list(bulk.memory.items()) == list(loop.memory.items())
        bulk.raw_store_words(base, [])
        assert list(bulk.memory.items()) == list(loop.memory.items())

    @pytest.mark.parametrize("workload", ["update", "swap"])
    def test_array_kernels_start_from_the_initialised_array(self, workload):
        built = build(workload, "dsb", Scale(ops_per_txn=2, txns=1))
        baseline = built.baseline_memory
        base = min(baseline)
        assert list(baseline.items()) == [
            (base + 8 * index, index) for index in range(16384)]


class TestTransactions:
    def test_write_outside_txn_rejected(self):
        fw = framework()
        with pytest.raises(RuntimeError):
            fw.write(0x80001000, 1)
        with pytest.raises(RuntimeError):
            fw.write_init(0x80001000, 1)

    def test_nested_txn_rejected(self):
        fw = framework()
        fw.tx_begin()
        with pytest.raises(RuntimeError):
            fw.tx_begin()

    def test_commit_outside_txn_rejected(self):
        with pytest.raises(RuntimeError):
            framework().tx_commit()

    def test_finish_inside_txn_rejected(self):
        fw = framework()
        fw.tx_begin()
        with pytest.raises(RuntimeError):
            fw.finish()

    def test_txn_ids_increment(self):
        fw = framework()
        assert fw.tx_begin() == 0
        fw.tx_commit()
        assert fw.tx_begin() == 1


class TestWrite:
    def test_functional_update(self):
        fw = framework()
        fw.raw_store(0x80200000, 5)
        fw.tx_begin()
        fw.write(0x80200000, 6)
        assert fw.peek(0x80200000) == 6

    def test_log_entry_records_old_value_with_epoch(self):
        fw = framework()
        fw.raw_store(0x80200000, 5)
        fw.tx_begin()
        fw.write(0x80200000, 6)
        slot = fw.log.entries[0].slot_addr
        assert fw.peek(slot) == 0x80200000 | 0  # txn 0 epoch
        assert fw.peek(slot + 8) == 5
        fw.tx_commit()
        fw.tx_begin()
        fw.write(0x80200000, 7)
        slot = fw.log.entries[0].slot_addr
        assert fw.peek(slot) & 7 == 1  # txn 1 epoch

    def test_obligations_registered(self):
        fw = framework()
        fw.tx_begin()
        fw.write(0x80200000, 6)
        fw.tx_commit()
        kinds = [o.kind for o in fw.obligations]
        assert kinds.count(LOG_BEFORE_STORE) == 1
        assert kinds.count(PERSIST_BEFORE_COMMIT) == 2  # log + data tags

    def test_snapshots_capture_line_content(self):
        fw = framework()
        fw.tx_begin()
        fw.write(0x80200000, 6)
        snap = fw.line_snapshots[codegen.data_tag(0)]
        assert snap[0x80200000] == 6


class TestInitPath:
    def test_write_init_emits_no_log(self):
        fw = framework()
        fw.tx_begin()
        before_entries = len(fw.log.entries)
        fw.write_init(fw.alloc(8), 3)
        assert len(fw.log.entries) == before_entries

    def test_flush_init_covers_all_lines(self):
        fw = framework()
        fw.tx_begin()
        addr = fw.alloc(200, align=64)
        fw.flush_init(addr, 200)
        flushes = [i for i in fw.builder.trace if i.is_writeback]
        assert len(flushes) == 4  # 200 bytes spans 4 lines from 64B-aligned

    def test_init_tags_become_commit_obligations(self):
        fw = framework()
        fw.tx_begin()
        addr = fw.alloc(8)
        fw.write_init(addr, 1)
        fw.flush_init(addr, 8)
        fw.tx_commit()
        init_obligations = [
            o for o in fw.obligations
            if o.kind == PERSIST_BEFORE_COMMIT and o.first_tag.startswith("init")
        ]
        assert len(init_obligations) == 1


class TestFinish:
    def test_built_workload_contents(self):
        fw = framework()
        fw.raw_store(0x80200000, 1)
        fw.tx_begin()
        fw.write(0x80200000, 2)
        fw.tx_commit()
        built = fw.finish()
        assert built.trace[-1].opcode.name == "HALT"
        assert built.ops == 1
        assert built.txns == 1
        assert built.baseline_memory[0x80200000] == 1
        assert built.final_memory[0x80200000] == 2

    def test_warm_lines_cover_memory(self):
        fw = framework()
        fw.raw_store(0x80200000, 1)
        fw.tx_begin()
        fw.write(0x80200000, 2)
        fw.tx_commit()
        built = fw.finish()
        lines = built.warm_lines()
        assert (0x80200000 & ~63) in lines
        assert lines == sorted(lines)

    def test_tracked_state_snapshots(self):
        fw = framework()
        fw.raw_store(0x80200000, 1)
        fw.track_writes()
        fw.tx_begin()
        fw.write(0x80200000, 2)
        fw.tx_commit()
        fw.tx_begin()
        fw.write(0x80200000, 3)
        fw.tx_commit()
        built = fw.finish()
        assert built.tracked_cells == [0x80200000]
        assert built.committed_writes == [{0x80200000: 2}, {0x80200000: 3}]
        injector = CrashInjector(built, PersistLog())
        assert injector.expected_state(0) == {0x80200000: 1}
        assert injector.expected_state(1) == {0x80200000: 2}
        assert injector.expected_state(2) == {0x80200000: 3}


class TestWriteSets:
    def test_undeclared_workload_records_nothing(self):
        fw = framework()
        fw.tx_begin()
        fw.write(0x80200000, 2)
        fw.tx_commit()
        built = fw.finish()
        assert built.tracked_cells == []
        assert built.committed_writes == []
        assert not CrashInjector(built, PersistLog()) \
            .supports_recovery_validation

    def test_cell_written_twice_appears_once_with_the_last_value(self):
        fw = framework()
        fw.raw_store(0x80200000, 1)
        fw.track_writes()
        fw.tx_begin()
        fw.write(0x80200000, 2)
        fw.write(0x80200008, 9)
        fw.write(0x80200000, 5)
        fw.tx_commit()
        built = fw.finish()
        assert built.committed_writes == [{0x80200000: 5, 0x80200008: 9}]
        assert built.tracked_cells == [0x80200000, 0x80200008]

    def test_tracked_cells_ascend(self):
        fw = framework()
        fw.track_writes()
        fw.tx_begin()
        for addr in (0x80200040, 0x80200000, 0x80200020):
            fw.write(addr, 1)
        fw.tx_commit()
        assert fw.finish().tracked_cells == [0x80200000, 0x80200020,
                                             0x80200040]

    def test_write_init_value_reaches_a_later_logged_cell(self):
        """A cell initialised in one transaction and logged in a later one
        is tracked at every boundary, with its initial value in between."""
        fw = framework()
        fw.track_writes()
        fw.tx_begin()
        node = fw.alloc(64, align=64)
        fw.write_init(node, 7)
        fw.write_init(node + 8, 8)  # never logged: not tracked
        fw.flush_init(node, 16)
        fw.tx_commit()
        fw.tx_begin()
        fw.write(node, 9)
        fw.tx_commit()
        built = fw.finish()
        assert built.tracked_cells == [node]
        assert built.committed_writes == [{node: 7}, {node: 9}]
        injector = CrashInjector(built, PersistLog())
        assert [injector.expected_state(n) for n in range(3)] == [
            {node: 0}, {node: 7}, {node: 9}]

    def test_values_truncate_to_64_bits(self):
        fw = framework()
        fw.track_writes()
        fw.tx_begin()
        fw.write(0x80200000, (1 << 64) + 3)
        fw.tx_commit()
        assert fw.finish().committed_writes == [{0x80200000: 3}]


@pytest.mark.parametrize("workload,writes_per_op", (("update", 1),
                                                   ("swap", 2)))
def test_array_kernels_store_one_entry_per_write_at_most(workload,
                                                         writes_per_op):
    """A commit records the cells it wrote, not the 16,384-cell array."""
    scale = Scale(10, 8)
    built = build(workload, "dsb", scale)
    writes = scale.total_ops * writes_per_op
    assert len(built.committed_writes) == scale.txns
    assert sum(len(txn) for txn in built.committed_writes) <= writes
    assert len(built.tracked_cells) <= writes
    assert built.tracked_cells == sorted(set().union(*built.committed_writes))
