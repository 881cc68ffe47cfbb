"""Tests for the runner, the experiment drivers and the timelines."""

import pytest

from repro.harness import CONFIGURATIONS, configuration, run_matrix, run_one
from repro.harness.experiments import (
    fig9_execution_time,
    fig10_pending_writes,
    fig11_issue_distribution,
    geomean,
    hazard_pointer_experiment,
    safety_matrix,
)
from repro.harness.timelines import fig8_microprogram, three_update_timeline
from repro.workloads import Scale

SMALL = Scale(ops_per_txn=5, txns=3)
KERNELS = ["update", "swap"]


@pytest.fixture(scope="module")
def matrix():
    return run_matrix(KERNELS, list(CONFIGURATIONS), SMALL)


class TestRunner:
    def test_run_one_smoke(self):
        result = run_one("update", configuration("B"), SMALL)
        assert result.cycles > 0
        assert result.instructions == len(result.built.trace)
        assert result.consistency.observed_safe

    def test_matrix_covers_everything(self, matrix):
        assert set(matrix) == set(KERNELS)
        for app in KERNELS:
            assert set(matrix[app]) == {"B", "SU", "IQ", "WB", "U"}

    def test_iq_and_wb_share_trace(self, matrix):
        runs = matrix["update"]
        assert runs["IQ"].built is runs["WB"].built

    def test_warmup_effect(self):
        cold = run_one("update", configuration("U"), SMALL, warm=False)
        warm = run_one("update", configuration("U"), SMALL, warm=True)
        assert warm.cycles < cold.cycles


class TestFig9:
    def test_normalization(self, matrix):
        result = fig9_execution_time(SMALL, KERNELS, results=matrix)
        for app in KERNELS:
            assert result.normalized[app]["B"] == 1.0
        for name in ("SU", "IQ", "WB", "U"):
            assert 0 < result.geomean_normalized[name] <= 1.05

    def test_ordering_matches_paper(self, matrix):
        result = fig9_execution_time(SMALL, KERNELS, results=matrix)
        geo = result.geomean_normalized
        assert geo["U"] <= geo["WB"] <= geo["IQ"] <= geo["SU"] <= geo["B"]

    def test_rows_render(self, matrix):
        result = fig9_execution_time(SMALL, KERNELS, results=matrix)
        rows = result.rows()
        assert rows[0].startswith("app")
        assert any(row.startswith("geomean") for row in rows)

    def test_geomean_helper(self):
        assert abs(geomean([1.0, 4.0]) - 2.0) < 1e-9
        assert geomean([2.0]) == 2.0


class TestFig10:
    def test_histograms_normalized(self, matrix):
        result = fig10_pending_writes(SMALL, KERNELS, results=matrix)
        for app in KERNELS:
            for name in ("B", "U"):
                series = result.series(app, name)
                assert abs(sum(series) - 1.0) < 1e-6

    def test_unsafe_has_most_pending(self):
        """Needs enough operations to reach buffer steady state."""
        scale = Scale(ops_per_txn=20, txns=8)
        medium = run_matrix(["update"], list(CONFIGURATIONS), scale)
        result = fig10_pending_writes(scale, ["update"], results=medium)
        means = result.mean_pending["update"]
        assert means["U"] > means["B"]
        assert means["WB"] >= means["IQ"]


class TestFig11:
    def test_distributions_shape(self, matrix):
        result = fig11_issue_distribution(SMALL, KERNELS, results=matrix)
        for app in KERNELS:
            for name in result.distributions[app]:
                series = result.distributions[app][name]
                assert len(series) == 9
                assert abs(sum(series) - 1.0) < 1e-6

    def test_zero_issue_dominates(self, matrix):
        """Section VII-B: all configurations issue 0 instructions in the
        majority of cycles."""
        result = fig11_issue_distribution(SMALL, KERNELS, results=matrix)
        for app in KERNELS:
            for name, series in result.distributions[app].items():
                assert series[0] > 0.5

    def test_ipc_ordering(self, matrix):
        result = fig11_issue_distribution(SMALL, KERNELS, results=matrix)
        assert result.mean_ipc["U"] >= result.mean_ipc["B"]


class TestSafety:
    def test_safe_configs_clean(self, matrix):
        result = safety_matrix(SMALL, KERNELS, results=matrix)
        assert result.safe_configs_clean()

    def test_unsafe_config_observed(self, matrix):
        result = safety_matrix(SMALL, KERNELS, results=matrix)
        assert any(result.violation_counts[app]["U"] > 0 for app in KERNELS)


class TestHazard:
    def test_ede_beats_fence(self):
        # Default: the contended 2-core kernel.
        result = hazard_pointer_experiment(Scale(ops_per_txn=10, txns=5))
        assert result.cores == 2
        assert result.normalized["IQ"] < 1.0
        assert result.normalized["WB"] < 1.0
        # Unordered still beats the fence, but under contention it is not
        # the lower bound any more: without ordering nothing paces the
        # stores, so the write buffer backs up (seed-dependent).
        assert result.normalized["U"] < 1.0

    def test_ede_beats_fence_single_core(self):
        # The historical single-core approximation keeps U as the floor.
        result = hazard_pointer_experiment(Scale(ops_per_txn=10, txns=5),
                                           cores=1)
        assert result.cores == 1
        assert result.normalized["IQ"] < 1.0
        assert result.normalized["WB"] < 1.0
        assert result.normalized["U"] <= result.normalized["WB"]

    def test_unmodeled_core_count_fails_loudly(self):
        import pytest

        with pytest.raises(ValueError):
            hazard_pointer_experiment(Scale(ops_per_txn=10, txns=5), cores=99)


class TestTimelines:
    def test_fig3_baseline_has_more_phases(self):
        baseline = three_update_timeline("B")
        ede = three_update_timeline("WB")
        assert baseline.phase_count() > ede.phase_count()

    def test_fig3_dsb_serializes_updates(self):
        baseline = three_update_timeline("B")
        ede = three_update_timeline("WB")
        # Under DSBs the three updates proceed in disjoint phases; with EDE
        # the update halves of independent operations overlap (Figure 3).
        assert not baseline.halves_overlap((0, "update"), (1, "update"))
        assert ede.halves_overlap((0, "update"), (1, "update"))

    def test_fig3_ede_overlaps_logs(self):
        ede = three_update_timeline("WB")
        assert ede.halves_overlap((0, "log"), (1, "log"))

    def test_fig8_iq_serializes_wb_overlaps(self):
        iq = fig8_microprogram("IQ")
        wb = fig8_microprogram("WB")
        assert wb.total_cycles < iq.total_cycles
        # Under IQ the second pair completes a full persist later (Fig. 8b);
        # under WB all four complete within a few cycles (Fig. 8a).
        iq_spread = max(iq.complete_cycles) - min(iq.complete_cycles)
        wb_spread = max(wb.complete_cycles) - min(wb.complete_cycles)
        assert wb_spread < iq_spread
