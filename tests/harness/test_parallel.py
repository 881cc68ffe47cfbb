"""The parallel engine must reproduce the serial runner bit for bit."""

import pytest

from repro.harness import CONFIGURATIONS, RunSummary, run_matrix
from repro.harness.experiments import APPLICATIONS
from repro.harness.parallel import (
    resolve_workers,
    run_matrix_parallel,
    summarize_matrix,
)
from repro.workloads import TEST_SCALE


@pytest.fixture(scope="module")
def serial_matrix():
    return run_matrix(list(APPLICATIONS), list(CONFIGURATIONS), TEST_SCALE)


@pytest.fixture(scope="module")
def parallel_matrix():
    return run_matrix_parallel(list(APPLICATIONS), list(CONFIGURATIONS),
                               TEST_SCALE, max_workers=2, cache=False)


class TestSerialParallelEquality:
    def test_same_shape_and_order(self, serial_matrix, parallel_matrix):
        assert list(serial_matrix) == list(parallel_matrix)
        for app in serial_matrix:
            assert list(serial_matrix[app]) == list(parallel_matrix[app])

    def test_identical_cycles_ipc_verdicts(self, serial_matrix,
                                           parallel_matrix):
        for app in serial_matrix:
            for name in serial_matrix[app]:
                serial = serial_matrix[app][name]
                parallel = parallel_matrix[app][name]
                assert serial.cycles == parallel.cycles, (app, name)
                assert serial.ipc == parallel.ipc, (app, name)
                assert (serial.consistency.verdict
                        == parallel.consistency.verdict), (app, name)

    def test_identical_detailed_stats(self, serial_matrix, parallel_matrix):
        for app in serial_matrix:
            for name in serial_matrix[app]:
                serial = serial_matrix[app][name]
                parallel = parallel_matrix[app][name]
                assert (serial.stats.issue_histogram
                        == parallel.stats.issue_histogram)
                assert (serial.nvm_pending_samples
                        == parallel.nvm_pending_samples)
                assert serial.nvm_media_writes == parallel.nvm_media_writes

    def test_trace_shared_within_fence_mode(self, parallel_matrix):
        # IQ and WB run the same EDE binary; a worker builds it once and the
        # group's pickle graph preserves the sharing.
        for app in parallel_matrix:
            assert (parallel_matrix[app]["IQ"].built
                    is parallel_matrix[app]["WB"].built)

    def test_deterministic_across_invocations(self):
        configs = list(CONFIGURATIONS)
        first = run_matrix_parallel(["update"], configs, TEST_SCALE,
                                    max_workers=2, cache=False)
        second = run_matrix_parallel(["update"], configs, TEST_SCALE,
                                     max_workers=2, cache=False)
        for name in first["update"]:
            assert (first["update"][name].cycles
                    == second["update"][name].cycles)


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "7")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "5")
        assert resolve_workers(None) == 5

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "lots")
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            resolve_workers(None)

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert resolve_workers(None) >= 1


class TestRunSummary:
    def test_from_result(self, parallel_matrix):
        result = parallel_matrix["update"]["WB"]
        summary = RunSummary.from_result(result)
        assert summary.workload == "update"
        assert summary.config == "WB"
        assert summary.cycles == result.cycles
        assert summary.ipc == result.ipc
        assert summary.verdict == result.consistency.verdict

    def test_summarize_matrix(self, parallel_matrix):
        rows = summarize_matrix(parallel_matrix)
        assert len(rows) == len(APPLICATIONS) * len(CONFIGURATIONS)
        assert {row.workload for row in rows} == set(APPLICATIONS)
