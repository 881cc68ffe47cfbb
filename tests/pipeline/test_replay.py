"""Replay metadata: the per-instruction columns the run loop reads.

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
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.dyninst import (
    ede_keys_of,
    exec_kind_of,
    producer_keys_of,
    retire_class_of,
)
from repro.pipeline.replay import TraceMeta, meta_for
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
        meta = TraceMeta(built.trace)
        assert meta.trace is built.trace
        for column in (meta.tails, meta.words, meta.epochs):
            assert len(column) == len(built.trace)

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
        meta = TraceMeta(built.trace)
        dmbs = 0
        for epoch, inst in zip(meta.epochs, built.trace):
            assert epoch == dmbs
            if inst.opcode.name in ("DMB_ST", "DMB_SY"):
                dmbs += 1
        assert dmbs > 0


# --- reference prepass ------------------------------------------------------
# The prepass as it was before the metadata took its static fields from a
# per-shape memo and became columns: one row per instruction, every fact
# recomputed per instruction, in the old 28-field layout.  The columns of
# TraceMeta must carry the same value under every one of these names.

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

#: The static tail layout the run loop unpacks (see repro.pipeline.replay).
TAIL_FIELDS = (
    "opcode",
    "is_load", "is_store", "is_writeback", "is_store_class",
    "is_memory", "is_barrier", "is_branch", "is_ede",
    "enters_iq", "needs_wb", "is_wait", "retire_class",
    "size", "producer_keys", "exec_kind", "result_regs",
    "src_regs", "dst_regs", "is_dsb", "is_halt",
    "consumer_keys", "ede_keys",
)

#: The fields each instruction's position in the trace determines: the
#: instruction (trace column), its address (read off the instruction),
#: its words (words column) and its DMB epoch (epoch column; the two
#: epochs, always equal, share it).
DYNAMIC_FIELDS = ("inst", "addr", "words", "store_epoch", "mem_epoch")


def meta_row(meta, index) -> dict:
    """Every reference field of trace index ``index``, read off the
    columns."""
    inst = meta.trace[index]
    epoch = meta.epochs[index]
    row = dict(zip(TAIL_FIELDS, meta.tails[index]))
    row.update(inst=inst, addr=inst.addr, words=meta.words[index],
               store_epoch=epoch, mem_epoch=epoch)
    return row


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
    meta = TraceMeta(trace)
    expected = reference_rows(trace)
    assert len(meta.tails) == len(expected) == len(trace)
    assert len(meta.tails[0]) == len(TAIL_FIELDS)
    for index, ref in enumerate(expected):
        row = meta_row(meta, index)
        for name, value in zip(REFERENCE_FIELDS, ref):
            got = row[name]
            assert got == value and type(got) is type(value), (
                "row %d field %s: %r != %r" % (index, name, got, value))
        assert row["inst"] is trace[index]


class TestRowsMatchReference:
    def test_every_field_has_its_own_index(self):
        # Each reference field is read from exactly one place: a column
        # or one index of the static tail.
        assert len(set(TAIL_FIELDS)) == len(TAIL_FIELDS)
        assert not set(TAIL_FIELDS) & set(DYNAMIC_FIELDS)
        assert (sorted(TAIL_FIELDS + DYNAMIC_FIELDS)
                == sorted(REFERENCE_FIELDS))

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
