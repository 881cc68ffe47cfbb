"""Tests for the markdown report generator."""

import pytest

from repro.harness import CONFIGURATIONS, run_matrix
from repro.harness.experiments import (
    fig9_execution_time,
    fig10_pending_writes,
    fig11_issue_distribution,
    safety_matrix,
)
from repro.harness.reporting import (
    fig9_markdown,
    fig10_markdown,
    fig11_markdown,
    full_report,
    safety_markdown,
    supervision_markdown,
)
from repro.harness.supervisor import Attempt, GroupReport, MatrixReport
from repro.workloads import Scale

SMALL = Scale(ops_per_txn=5, txns=2)
APPS = ["update"]


@pytest.fixture(scope="module")
def matrix():
    return run_matrix(APPS, list(CONFIGURATIONS), SMALL)


class TestSections:
    def test_fig9_markdown(self, matrix):
        text = fig9_markdown(fig9_execution_time(SMALL, APPS, results=matrix))
        assert text.startswith("| app |")
        assert "update" in text
        assert "geomean (paper)" in text
        # Header + separator + app rows + 2 geomean rows.
        assert text.count("\n") == 1 + len(APPS) + 2

    def test_fig10_markdown(self, matrix):
        text = fig10_markdown(
            fig10_pending_writes(SMALL, APPS, results=matrix))
        assert "update" in text
        assert "| B |" in text or "B |" in text.splitlines()[0]

    def test_fig11_markdown(self, matrix):
        text = fig11_markdown(
            fig11_issue_distribution(SMALL, APPS, results=matrix))
        assert "measured IPC" in text
        assert "paper IPC" in text

    def test_safety_markdown(self, matrix):
        text = safety_markdown(safety_matrix(SMALL, APPS, results=matrix))
        assert "safe" in text
        assert "UNSAFE" in text  # the U column


def _supervision_report():
    clean = GroupReport(
        group="update/dsb",
        attempts=[Attempt(outcome="ok", where="pool", latency_s=0.1)],
        succeeded=True)
    flaky = GroupReport(
        group="swap/ede",
        attempts=[Attempt(outcome="timeout", where="pool", latency_s=2.0,
                          error="timed out after 2.0s"),
                  Attempt(outcome="ok", where="serial", latency_s=0.2)],
        succeeded=True)
    return MatrixReport(groups=[clean, flaky], pool_respawns=1,
                        wall_time_s=1.5, resumed_from_cache=2)


class TestSupervisionMarkdown:
    def test_summary_and_group_tables(self):
        text = supervision_markdown(_supervision_report())
        assert "| groups | retries |" in text
        assert "| 2 | 1 | 1 | 2 | 1.50s | parallel |" in text
        assert "| update/dsb | ok | 1 | 0 |" in text
        assert "| swap/ede | ok | 2 | 1 | timed out after 2.0s |" in text

    def test_failed_group_is_loud(self):
        report = _supervision_report()
        report.groups[1].succeeded = False
        assert "**FAILED**" in supervision_markdown(report)

    def test_degraded_mode_labelled(self):
        report = _supervision_report()
        report.degraded_to_serial = True
        assert "serial (degraded)" in supervision_markdown(report)


class TestFullReport:
    def test_structure(self, matrix):
        text = full_report(SMALL, results=matrix)
        assert text.startswith("# Measured results")
        for heading in ("## Figure 9", "## Figure 10", "## Figure 11",
                        "## Crash-consistency"):
            assert heading in text
        assert text.endswith("\n")

    def test_no_supervision_section_for_reused_results(self, matrix):
        """Precomputed results never ran through the supervisor here."""
        assert "## Supervised execution" not in full_report(
            SMALL, results=matrix)

    def test_supervision_section_after_supervised_run(self, matrix,
                                                      monkeypatch):
        """When full_report runs the matrix through the parallel engine,
        the supervisor's report lands in the regenerated markdown."""
        import repro.harness.parallel as parallel
        import repro.harness.reporting as reporting

        def fake_run_matrix_parallel(*args, **kwargs):
            monkeypatch.setattr(parallel, "_LAST_REPORT",
                                _supervision_report())
            return matrix

        monkeypatch.setattr(reporting, "run_matrix_parallel",
                            fake_run_matrix_parallel)
        text = full_report(SMALL)
        assert "## Supervised execution" in text
        assert "| update/dsb | ok |" in text
