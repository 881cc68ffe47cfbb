"""Tests for crash injection and undo recovery."""

import pytest

from repro.consistency.crash_sim import CrashInjector
from repro.harness import configuration, run_one
from repro.workloads import Scale

SMALL = Scale(ops_per_txn=4, txns=3)


def run_with_injector(workload="update", config="B", scale=SMALL):
    result = run_one(workload, configuration(config), scale)
    return result, CrashInjector(result.built, result.persist_log)


class TestImageReconstruction:
    def test_empty_prefix_is_baseline(self):
        result, injector = run_with_injector()
        image = injector.image_at(0)
        assert image == result.built.baseline_memory

    def test_full_prefix_reflects_all_commits(self):
        result, injector = run_with_injector()
        image = injector.image_at(len(result.persist_log))
        layout = result.built.layout
        assert image[layout.commit_record_addr] == SMALL.txns

    def test_prefix_monotone_commit_count(self):
        result, injector = run_with_injector()
        layout = result.built.layout
        last = 0
        for point in range(len(result.persist_log) + 1):
            committed = injector.image_at(point).get(
                layout.commit_record_addr, 0)
            assert committed >= last
            last = committed
        assert last == SMALL.txns


class TestRecovery:
    def test_recovery_restores_in_flight_updates(self):
        """Crash right after the first data persist of txn 0: recovery must
        restore the original value."""
        result, injector = run_with_injector()
        log = result.persist_log
        first_data = next(r for r in log if r.tag and r.tag.startswith("data:"))
        image = injector.image_at(first_data.seq + 1)
        recovered = injector.recover(image)
        report = injector.validate(first_data.seq + 1)
        assert report.consistent
        assert report.committed_txns == 0
        # Recovered value equals the baseline for every tracked address.
        for addr, value in injector.expected_state(0).items():
            assert recovered.get(addr, 0) == value

    def test_recovery_preserves_committed_updates(self):
        result, injector = run_with_injector()
        log = result.persist_log
        first_commit = log.first_with_tag("commit:0")
        report = injector.validate(first_commit.seq + 1)
        assert report.consistent
        assert report.committed_txns == 1

    def test_stale_entries_skipped_by_epoch(self):
        """Crash during txn 1: txn 0's stale slots (epoch 0) must not be
        undone onto txn 0's committed data."""
        result, injector = run_with_injector(
            scale=Scale(ops_per_txn=4, txns=2))
        log = result.persist_log
        # Find a persist inside txn 1 (after commit:0).
        commit0 = log.first_with_tag("commit:0")
        later = [r for r in log if r.seq > commit0.seq
                 and r.tag and r.tag.startswith("data:")]
        assert later
        report = injector.validate(later[0].seq + 1)
        assert report.consistent
        assert report.committed_txns == 1


class TestValidateMany:
    @pytest.mark.parametrize("config", ["B", "SU", "IQ", "WB"])
    def test_safe_configs_recover_everywhere(self, config):
        _result, injector = run_with_injector(config=config)
        reports = injector.validate_many(
            crash_points=range(0, len(injector.persist_log) + 1, 2))
        assert all(r.consistent for r in reports)

    @pytest.mark.parametrize("workload", ["update", "swap"])
    def test_unsafe_config_fails_somewhere(self, workload):
        _result, injector = run_with_injector(workload=workload, config="U")
        reports = injector.validate_many()
        assert any(not r.consistent for r in reports)

    def test_explicit_crash_points(self):
        _result, injector = run_with_injector()
        reports = injector.validate_many(crash_points=[0, 1, 2])
        assert [r.crash_point for r in reports] == [0, 1, 2]
