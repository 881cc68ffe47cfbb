"""Replay metadata: the packed per-instruction rows the run loop reads.

End-to-end results of the loop are pinned by the golden digest corpus
(``tests/golden``); these are unit tests of :mod:`repro.pipeline.replay`.
"""

import pytest

import repro.workloads  # noqa: F401  (registers workloads)
from repro.harness.configs import CONFIGURATIONS, DEFAULT_PARAMS
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.replay import (
    R_INST,
    R_MEM_EPOCH,
    R_STORE_EPOCH,
    TraceMeta,
    build_rows,
    meta_for,
)
from repro.workloads import Scale
from repro.workloads import base as workload_base

TEST_SCALE = Scale(ops_per_txn=4, txns=3)


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
            assert row[R_STORE_EPOCH] == row[R_MEM_EPOCH] == dmbs
            if inst.opcode.name in ("DMB_ST", "DMB_SY"):
                dmbs += 1
        assert dmbs > 0
