"""Tests for squash injection and EDM checkpoint recovery (Section V-A1)."""

from repro.core.policies import IQ_POLICY, WB_POLICY
from repro.isa import instructions as ops

from tests.pipeline.conftest import NVM, make_core

LINE_A = NVM + 0x4000
LINE_B = NVM + 0x8000
LINES = [LINE_A, LINE_B]


def ede_trace():
    return [
        ops.mov_imm(0, LINE_A),
        ops.mov_imm(1, 1),
        ops.store(1, 0, addr=LINE_A),
        ops.dc_cvap_ede(0, edk_def=1, edk_use=0, addr=LINE_A, comment="p"),
        ops.mov_imm(2, LINE_B),
        ops.mov_imm(3, 2),
        ops.store_ede(3, 2, edk_def=0, edk_use=1, addr=LINE_B, comment="c"),
        ops.wait_all_keys(),
    ]


class TestSquashRecovery:
    def test_run_completes_after_squash(self):
        core, _ = make_core(ede_trace(), policy=WB_POLICY,
                            warm_lines=LINES, squash_at=[5])
        stats = core.run()
        assert stats.squashes == 1
        # Squashed instructions are refetched, so more retire than the
        # no-squash count only if flushed; total retired >= trace length.
        assert stats.retired >= len(ede_trace()) + 1

    def test_ordering_preserved_across_squash(self):
        """After the squash, refetched consumers must still link to the
        producer through the restored (and repaired) EDM."""
        for policy in (IQ_POLICY, WB_POLICY):
            core, controller = make_core(
                ede_trace(), policy=policy, warm_lines=LINES, squash_at=[5])
            completions = {}

            def capture(dyn, completions=completions):
                if dyn.inst.comment:
                    completions[dyn.inst.comment] = dyn.complete_cycle

            core.on_complete = capture
            core.run()
            assert completions["c"] >= completions["p"]

    def test_cycles_similar_to_clean_run(self):
        clean_core, _ = make_core(ede_trace(), policy=WB_POLICY,
                                  warm_lines=LINES)
        clean = clean_core.run().cycles
        squashed_core, _ = make_core(ede_trace(), policy=WB_POLICY,
                                     warm_lines=LINES, squash_at=[5])
        squashed = squashed_core.run().cycles
        assert squashed >= clean
        assert squashed < clean + 500

    def test_multiple_squashes(self):
        core, _ = make_core(ede_trace(), policy=WB_POLICY,
                            warm_lines=LINES, squash_at=[3, 6])
        stats = core.run()
        assert stats.squashes == 2

    def test_edm_clean_after_squashed_run(self):
        core, _ = make_core(ede_trace(), policy=WB_POLICY,
                            warm_lines=LINES, squash_at=[5])
        core.run()
        assert len(core.edm.spec) == 0

    def test_squash_at_start_is_harmless(self):
        core, _ = make_core(ede_trace(), policy=IQ_POLICY,
                            warm_lines=LINES, squash_at=[0])
        stats = core.run()
        assert stats.retired == len(core.trace)


def test_squash_flushing_a_completed_load_under_dmb():
    """A squash that flushes an already-completed load must not take it
    out of its DMB memory epoch a second time: the count would go
    negative, the epoch would never drain and the run would deadlock."""
    from tests.golden.record import SQUASH_WORKLOADS, squash_workload_core

    core, _ = squash_workload_core(*SQUASH_WORKLOADS["update/SU/1+2"])
    stats = core.run()
    assert stats.squashes == 1
    assert stats.retired == len(core.trace)
    assert all(count == 0 for count in core._mem_epoch_outstanding.values())
