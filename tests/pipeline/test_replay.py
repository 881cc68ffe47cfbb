"""Replay metadata: the packed per-instruction rows the run loop reads.

End-to-end results of the loop are pinned by the golden digest corpus
(``tests/golden``); these are unit tests of :mod:`repro.pipeline.replay`.
"""

from typing import List, Tuple

import pytest

import repro.workloads  # noqa: F401  (registers workloads)
from repro.harness.configs import CONFIGURATIONS, DEFAULT_PARAMS
from repro.isa.instructions import CLASSIFICATION_BY_OPCODE
from repro.isa.opcodes import Opcode
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.nvmfw.codegen import ALL_MODES, CONS_SUFFIX
from repro.pipeline import replay
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.dyninst import (
    ede_keys_of,
    exec_kind_of,
    producer_keys_of,
    retire_class_of,
)
from repro.pipeline.replay import (
    R_EPOCH,
    R_INST,
    TraceMeta,
    build_rows,
    meta_for,
)
from repro.workloads import Scale
from repro.workloads import base as workload_base

TEST_SCALE = Scale(ops_per_txn=4, txns=3)

MODES = ALL_MODES + tuple(mode + CONS_SUFFIX for mode in ALL_MODES)
MULTICORE_WORKLOADS = ("hazard", "mpsc", "counter")


def _hierarchy():
    params = DEFAULT_PARAMS
    controller = MemoryController(
        address_map=params.address_map,
        dram_params=params.dram,
        nvm_params=params.nvm,
    )
    return CacheHierarchy(controller, params.hierarchy)


class TestTraceMeta:
    def _built(self):
        return workload_base.build("update", "ede", TEST_SCALE)

    def test_rows_parallel_the_trace(self):
        built = self._built()
        rows = build_rows(built.trace)
        assert len(rows) == len(built.trace)
        assert all(row[R_INST] is inst
                   for row, inst in zip(rows, built.trace))

    def test_matches_rejects_other_traces(self):
        built = self._built()
        other = workload_base.build("btree", "ede", TEST_SCALE)
        meta = TraceMeta(built.trace)
        assert meta.matches(built.trace)
        assert not meta.matches(other.trace)
        assert not meta.matches(built.trace[:-1])

    def test_meta_for_is_memoized_per_workload(self):
        built = self._built()
        assert meta_for(built) is meta_for(built)

    def test_mismatched_meta_is_rejected_at_construction(self):
        built = self._built()
        other = workload_base.build("btree", "ede", TEST_SCALE)
        config = CONFIGURATIONS[0]
        with pytest.raises(ValueError):
            OutOfOrderCore(built.trace, _hierarchy(), config.policy,
                           DEFAULT_PARAMS.core, replay=meta_for(other))

    def test_replay_must_be_trace_meta(self):
        built = self._built()
        config = CONFIGURATIONS[0]
        with pytest.raises(TypeError, match="TraceMeta"):
            OutOfOrderCore(built.trace, _hierarchy(), config.policy,
                           DEFAULT_PARAMS.core, replay=built.trace)

    def test_row_epochs_count_earlier_dmbs(self):
        built = workload_base.build("update", "dmb_st", TEST_SCALE)
        rows = build_rows(built.trace)
        dmbs = 0
        for row, inst in zip(rows, built.trace):
            assert row[R_EPOCH] == dmbs
            if inst.opcode.name in ("DMB_ST", "DMB_SY"):
                dmbs += 1
        assert dmbs > 0


# --- reference prepass ------------------------------------------------------
# The row prepass as it was before rows took their static fields from a
# per-shape memo: every fact recomputed per instruction, in the old
# 28-field layout.  The rows of build_rows must carry the same value
# under every one of these names.

REFERENCE_FIELDS = (
    "inst", "opcode",
    "is_load", "is_store", "is_writeback", "is_store_class",
    "is_memory", "is_barrier", "is_branch", "is_ede",
    "enters_iq", "needs_wb", "is_wait", "retire_class",
    "addr", "size", "words", "producer_keys", "exec_kind",
    "store_epoch", "mem_epoch", "result_regs",
    "src_regs", "dst_regs", "is_dsb", "is_halt",
    "consumer_keys", "ede_keys",
)

#: Where each reference field lives in a build_rows row; the two DMB
#: epochs, always equal, share one field.
ROW_INDEX = {name: getattr(replay, "R_" + name.upper())
             for name in REFERENCE_FIELDS
             if name not in ("store_epoch", "mem_epoch")}
ROW_INDEX["store_epoch"] = ROW_INDEX["mem_epoch"] = R_EPOCH


def reference_rows(trace) -> List[tuple]:
    rows: List[tuple] = []
    append = rows.append
    classify = CLASSIFICATION_BY_OPCODE
    store_epoch = 0
    mem_epoch = 0
    for inst in trace:
        opcode = inst.opcode
        (is_load, is_store, is_writeback, is_store_class, is_memory,
         is_barrier, is_branch, is_ede, enters_iq) = classify[opcode]
        addr = inst.addr
        size = inst.size
        if addr is None:
            words: Tuple[int, ...] = ()
        else:
            base = addr & ~7
            end = addr + size - 1
            if base + 8 > end:
                words = (base,)
            else:
                words = tuple(range(base, end + 1, 8))
        append((
            inst, opcode,
            is_load, is_store, is_writeback, is_store_class,
            is_memory, is_barrier, is_branch, is_ede,
            enters_iq,
            is_store_class or opcode is Opcode.JOIN,
            opcode is Opcode.WAIT_KEY or opcode is Opcode.WAIT_ALL_KEYS,
            retire_class_of(opcode),
            addr, size, words,
            producer_keys_of(inst), exec_kind_of(opcode),
            store_epoch, mem_epoch, inst.dst,
            inst.timing_src_regs, inst.timing_dst_regs,
            opcode is Opcode.DSB_SY, opcode is Opcode.HALT,
            inst.consumer_keys(),
            ede_keys_of(inst) if is_ede else (),
        ))
        if not enters_iq and (opcode is Opcode.DMB_ST
                              or opcode is Opcode.DMB_SY):
            store_epoch += 1
            mem_epoch += 1
    return rows


def assert_rows_match_reference(trace):
    rows = build_rows(trace)
    expected = reference_rows(trace)
    assert len(rows) == len(expected) == len(trace)
    assert len(rows[0]) == len(set(ROW_INDEX.values()))
    for index, (row, ref) in enumerate(zip(rows, expected)):
        for name, value in zip(REFERENCE_FIELDS, ref):
            got = row[ROW_INDEX[name]]
            assert got == value and type(got) is type(value), (
                "row %d field %s: %r != %r" % (index, name, got, value))
        assert row[R_INST] is trace[index]


class TestRowsMatchReference:
    def test_every_field_has_its_own_index(self):
        assert sorted(set(ROW_INDEX.values())) == list(
            range(len(ROW_INDEX) - 1))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("workload", workload_base.workload_names())
    def test_single_core_traces(self, workload, mode):
        assert_rows_match_reference(
            workload_base.build(workload, mode, TEST_SCALE).trace)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("workload", MULTICORE_WORKLOADS)
    def test_two_core_traces(self, workload, mode):
        scale = Scale(TEST_SCALE.ops_per_txn, TEST_SCALE.txns, cores=2)
        built = workload_base.build(workload, mode, scale)
        for trace in built.core_traces:
            assert_rows_match_reference(trace)
