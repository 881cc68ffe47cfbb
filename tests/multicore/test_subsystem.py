"""Unit coverage of the multi-core building blocks: shared-EDM bus,
coherence directory, per-core layout carve-outs, EDK partitioning and the
machine-level stats merge."""

import dataclasses

import pytest

from repro.multicore.build import PartitionedEdkAllocator
from repro.multicore.coherence import (
    DEMOTE_PENALTY,
    INVALIDATE_PENALTY,
    CoherenceDirectory,
    CoherentHierarchy,
)
from repro.multicore.edm_bus import SharedEdmBus, remote_token
from repro.multicore.layout import (
    MAX_CORES,
    core_layout,
    txn_offset,
)
from repro.multicore.system import merge_stats
from repro.pipeline.stats import PipelineStats


class _Dyn:
    """Minimal DynInst stand-in for bus bookkeeping tests."""

    def __init__(self, seq):
        self.seq = seq
        self.e_deps_outstanding = set()


class TestSharedEdmBus:
    def test_remote_producer_visible_across_cores(self):
        bus = SharedEdmBus()
        producer = _Dyn(seq=5)
        bus.publish(1, producer, (7,))
        assert bus.remote_producer(0, 7) == (1, 5)
        # The producing core itself resolves the key through its local EDM.
        assert bus.remote_producer(1, 7) is None

    def test_complete_clears_waiter_tokens(self):
        bus = SharedEdmBus()
        producer = _Dyn(seq=5)
        bus.publish(1, producer, (7,))
        consumer = _Dyn(seq=9)
        token = remote_token(1, 5)
        consumer.e_deps_outstanding.add(token)
        bus.add_waiter((1, 5), 0, consumer)
        bus.complete(1, producer)
        assert token not in consumer.e_deps_outstanding
        assert bus.remote_producer(0, 7) is None
        # The consumer's core is recorded for the driver to step.
        assert bus.woken == {0}

    def test_complete_wakes_cores_with_blocked_waits(self):
        bus = SharedEdmBus()
        bus.publish(1, _Dyn(seq=5), (7,))
        bus.blocked_waits.add(0)
        bus.complete(1, _Dyn(seq=5))
        assert bus.woken == {0}

    def test_wait_watermark_ignores_later_publishes(self):
        bus = SharedEdmBus()
        bus.publish(1, _Dyn(seq=1), (3,))
        watermark = bus.ticket
        bus.publish(1, _Dyn(seq=2), (3,))
        assert bus.remote_inflight(0, 3, watermark)
        assert not bus.remote_inflight(0, 4, watermark)
        # The second publish is past the watermark: a wait dispatched at
        # the watermark must not block on it (deadlock freedom).
        bus.complete(1, _Dyn(seq=1))
        assert not bus.remote_inflight(0, 3, watermark)

    def test_wait_all_uses_key_zero_wildcard(self):
        bus = SharedEdmBus()
        bus.publish(2, _Dyn(seq=1), (11,))
        assert bus.remote_inflight(0, 0, bus.ticket)
        assert not bus.remote_inflight(2, 0, bus.ticket)


class TestCoherence:
    def _pair(self):
        from repro.harness.configs import DEFAULT_PARAMS
        from repro.memory.controller import MemoryController

        params = DEFAULT_PARAMS
        controller = MemoryController(address_map=params.address_map,
                                      dram_params=params.dram,
                                      nvm_params=params.nvm)
        directory = CoherenceDirectory()
        pair = [CoherentHierarchy(controller, params.hierarchy, directory,
                                  core_id) for core_id in range(2)]
        return directory, pair

    def test_store_invalidates_remote_copy(self):
        directory, (a, b) = self._pair()
        addr = 64 << 20
        b.load(addr, cycle=0)
        assert b.l1d.lookup(b.l1d.line_addr(addr))
        directory.on_store(0, addr, cycle=10)
        assert not b.l1d.lookup(b.l1d.line_addr(addr))
        assert directory.invalidations == 1

    def test_load_demotes_remote_dirty_copy(self):
        directory, (a, b) = self._pair()
        addr = 64 << 20
        b.store_commit(addr, cycle=0)
        penalty = directory.on_load(0, addr, cycle=10)
        assert penalty == DEMOTE_PENALTY
        assert directory.demotions == 1
        assert directory.dirty_writebacks == 1

    def test_clean_remote_copies_are_free_sharers(self):
        directory, (a, b) = self._pair()
        addr = 64 << 20
        b.load(addr, cycle=0)
        assert directory.on_load(0, addr, cycle=10) == 0

    def test_store_penalty_constant(self):
        directory, (a, b) = self._pair()
        addr = 64 << 20
        b.load(addr, cycle=0)
        assert directory.on_store(0, addr, cycle=10) == INVALIDATE_PENALTY


class TestLayout:
    def test_carve_outs_are_disjoint(self):
        layouts = [core_layout(core) for core in range(MAX_CORES)]
        regions = []
        for layout in layouts:
            regions.append((layout.tx_meta_base,
                            layout.tx_meta_base + layout.tx_meta_bytes))
            regions.append((layout.log_base,
                            layout.log_base + layout.log_bytes))
        regions.sort()
        for (_, end), (start, _) in zip(regions, regions[1:]):
            assert end <= start

    def test_heap_shared_and_past_every_log(self):
        layouts = [core_layout(core) for core in range(MAX_CORES)]
        heaps = {layout.heap_base for layout in layouts}
        assert len(heaps) == 1
        heap = heaps.pop()
        assert all(layout.log_base + layout.log_bytes <= heap
                   for layout in layouts)

    def test_log_heads_are_line_exclusive(self):
        heads = [core_layout(core).log_head_addr
                 for core in range(MAX_CORES)]
        assert len({head // 64 for head in heads}) == MAX_CORES

    def test_txn_offsets_preserve_epoch_bits(self):
        for core in range(MAX_CORES):
            assert txn_offset(core) % 8 == 0

    def test_out_of_range_core_rejected(self):
        with pytest.raises(ValueError):
            core_layout(MAX_CORES)


class TestEdkPartitioning:
    def test_partitions_are_disjoint_and_cover_free_keys(self):
        cores = 3
        reserved = (15, 14)
        partitions = [
            PartitionedEdkAllocator(core, cores, reserved)._keys
            for core in range(cores)
        ]
        seen = set()
        for keys in partitions:
            assert not (set(keys) & seen)
            seen.update(keys)
        assert seen == set(range(1, 16)) - set(reserved)

    def test_allocator_round_robins_its_partition(self):
        alloc = PartitionedEdkAllocator(0, 2)
        first = [alloc.allocate() for _ in range(alloc.capacity)]
        assert sorted(first) == sorted(set(first))
        assert alloc.allocate() == first[0]

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            PartitionedEdkAllocator(0, 1, reserved=tuple(range(1, 16)))


class TestMergeStats:
    def _stats(self, base):
        stats = PipelineStats()
        for index, field in enumerate(dataclasses.fields(PipelineStats)):
            if field.name != "issue_histogram":
                setattr(stats, field.name, base + index)
        stats.issue_histogram = {0: base, 3: 2 * base}
        return stats

    def test_every_counter_summed_cycles_is_max(self):
        cores = [self._stats(10), self._stats(20), self._stats(30)]
        merged = merge_stats(cores)
        for field in dataclasses.fields(PipelineStats):
            if field.name in ("cycles", "issue_histogram"):
                continue
            assert getattr(merged, field.name) == sum(
                getattr(stats, field.name) for stats in cores), field.name
        assert merged.cycles == max(stats.cycles for stats in cores)
        assert merged.issue_histogram == {0: 60, 3: 120}

    def test_merging_one_core_is_identity(self):
        stats = self._stats(7)
        assert merge_stats([stats]) == stats


def _cyclic_garbage_left_by(run) -> int:
    """Objects ``gc.collect()`` finds after ``run()``, with automatic
    collection off so whatever cycles it left are still there to count;
    ``run`` returns what it made, which is dropped first."""
    import gc

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        made = run()
        del made
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


class TestMachineLifetime:
    """A finished machine is freed by refcount: neither the cores' bus
    hooks nor the coherence directory close a reference cycle, and trace
    build, the replay prepass and the pipeline loop make none, so
    nothing is left for the cyclic GC.  This is what makes pausing it
    over them (:mod:`repro.gcpause`) defer no garbage."""

    @pytest.mark.parametrize("cores", [2, 4])
    def test_run_one_leaves_no_cyclic_garbage(self, cores):
        from repro.harness.configs import configuration
        from repro.harness.runner import run_one
        from repro.workloads import Scale

        for workload in ("mpsc", "counter", "hazard"):
            def run():
                result = run_one(workload, configuration("WB"),
                                 Scale(4, 3, cores=cores))
                assert len(result.core_stats) == cores
                return result

            assert _cyclic_garbage_left_by(run) == 0, workload

    @pytest.mark.parametrize("config", ["B", "WB"])  # dsb, ede
    @pytest.mark.parametrize("workload", ["update", "swap", "btree", "ctree",
                                          "rbtree", "rtree"])
    def test_build_and_run_one_leave_no_cyclic_garbage(self, workload,
                                                       config):
        from repro.harness.configs import configuration
        from repro.harness.runner import run_one
        from repro.workloads import base as workload_base

        config = configuration(config)
        scale = workload_base.TEST_SCALE
        built = []
        assert _cyclic_garbage_left_by(lambda: built.append(
            workload_base.build(workload, config.fence_mode, scale))) == 0
        assert _cyclic_garbage_left_by(
            lambda: run_one(workload, config, scale, built=built[0])) == 0
        built.clear()
        assert _cyclic_garbage_left_by(lambda: None) == 0

    def test_coherence_counters_outlive_the_cores(self):
        from repro.harness.configs import DEFAULT_PARAMS, configuration
        from repro.multicore.system import simulate_built
        from repro.workloads import Scale
        from repro.workloads import base as workload_base

        config = configuration("WB")
        built = workload_base.build("counter", config.fence_mode,
                                    Scale(4, 3, cores=2))
        sim = simulate_built(built, config, DEFAULT_PARAMS)
        directory = sim.coherence
        assert directory.invalidations + directory.demotions > 0
        assert directory.dirty_writebacks >= 0

    def test_hooks_stay_settable_per_core(self):
        from repro.harness.configs import DEFAULT_PARAMS, configuration
        from repro.isa.instructions import halt
        from repro.memory.controller import MemoryController
        from repro.multicore.core import CoherentCore

        params = DEFAULT_PARAMS
        controller = MemoryController(address_map=params.address_map,
                                      dram_params=params.dram,
                                      nvm_params=params.nvm)
        hierarchy = CoherentHierarchy(controller, params.hierarchy,
                                      CoherenceDirectory(), 0)
        core = CoherentCore(0, SharedEdmBus(), [halt()], hierarchy,
                            configuration("WB").policy, params.core)
        assert core.on_complete.__func__ is CoherentCore.on_complete
        seen = []
        core.on_complete = seen.append
        assert core.on_complete == seen.append
        assert "on_ede_dispatch" not in vars(core)


def _recording_machine(traces):
    """IQ-policy coherent cores, one per trace, that record every
    completed DynInst in ``completed``."""
    from repro.harness.configs import DEFAULT_PARAMS, configuration
    from repro.memory.controller import MemoryController
    from repro.multicore.core import CoherentCore

    class Recording(CoherentCore):
        def on_complete(self, dyn):
            self.completed.append(dyn)
            super().on_complete(dyn)

    params = DEFAULT_PARAMS
    controller = MemoryController(address_map=params.address_map,
                                  dram_params=params.dram,
                                  nvm_params=params.nvm)
    directory, bus = CoherenceDirectory(), SharedEdmBus()
    cores = []
    for core_id, trace in enumerate(traces):
        hierarchy = CoherentHierarchy(controller, params.hierarchy,
                                      directory, core_id)
        core = Recording(core_id, bus, trace, hierarchy,
                         configuration("IQ").policy, params.core)
        core.completed = []
        cores.append(core)
    return cores


class TestWakes:
    """Which cycle a core that only the EDM bus can unblock resumes in.

    The consumer's core dispatches one cycle after the producer publishes
    key 1 (three NOPs first), and then has nothing scheduled: only the
    producer's completion, on the other core, can move it.  The
    reference driver steps every core every cycle, so it pins the cycle.
    """

    @staticmethod
    def _producer():
        from repro.isa import instructions as ops
        from tests.pipeline.conftest import NVM

        return [ops.mov_imm(0, NVM), ops.dc_cvap_ede(0, 1, 0, addr=NVM),
                ops.halt()]

    @staticmethod
    def _after_nops(*insts):
        from repro.isa import instructions as ops

        return [ops.nop(), ops.nop(), ops.nop(), *insts, ops.halt()]

    @staticmethod
    def _run(traces, use_reference=False):
        from repro.multicore.system import drive
        from tests.multicore.reference_drive import reference_drive

        cores = _recording_machine(traces)
        steps = (reference_drive if use_reference else drive)(cores)
        return cores, steps

    @staticmethod
    def _producer_done(core):
        (dyn,) = [d for d in core.completed if d.producer_keys]
        return dyn.complete_cycle

    @pytest.mark.parametrize("producer_id, delay", [(0, 0), (1, 1)])
    def test_remote_token_consumer_issues_when_woken(self, producer_id,
                                                     delay):
        from repro.isa import instructions as ops
        from tests.pipeline.conftest import NVM

        consumer = self._after_nops(ops.ldr_ede(2, 3, 0, 1, addr=NVM + 4096))
        traces = [consumer, self._producer()]
        if producer_id == 0:
            traces.reverse()
        results = []
        for use_reference in (False, True):
            cores, steps = self._run(traces, use_reference)
            (load,) = [d for d in cores[1 - producer_id].completed
                       if d.is_load]
            done = self._producer_done(cores[producer_id])
            assert load.issue_cycle == done + delay
            results.append(([dataclasses.asdict(c.stats) for c in cores],
                            steps))
        (stats, steps), (reference_stats, reference_steps) = results
        assert stats == reference_stats
        assert steps < reference_steps

    @pytest.mark.parametrize("producer_id, delay", [(0, 0), (1, 1)])
    def test_blocked_wait_retires_when_woken(self, producer_id, delay):
        from repro.isa import instructions as ops

        traces = [self._after_nops(ops.wait_key(1)), self._producer()]
        if producer_id == 0:
            traces.reverse()
        cores, _ = self._run(traces)
        waiter = cores[1 - producer_id]
        (wait,) = [d for d in waiter.completed if d.is_wait]
        assert wait.retire_cycle == self._producer_done(
            cores[producer_id]) + delay
        assert waiter.stats.retire_stall_wait > 0
