"""Acceptance: the supervised matrix converges under injected chaos.

The seeded fault plan kills a worker mid-group, truncates a freshly
written result-cache entry and bit-flips that entry and the next one —
all during one matrix run — and the run must still complete with results
bit-identical to a clean serial run, with the retries and pool respawns
recorded in the :class:`~repro.harness.supervisor.MatrixReport`.  A
second, warm run must then self-heal the damaged cache entries.
"""

import pytest

from repro.chaos import FaultPlan, FaultSpec, summarize_state
from repro.harness import CONFIGURATIONS, run_matrix
from repro.harness.parallel import last_matrix_report, run_matrix_parallel
from repro.harness.supervisor import SupervisorError
from repro.workloads import TEST_SCALE, base as workload_base

APPS = ["update", "swap"]
CONFIGS = list(CONFIGURATIONS)
N_MODES = len({config.fence_mode for config in CONFIGS})
N_CELLS = len(APPS) * len(CONFIGS)


@pytest.fixture(scope="module")
def serial_matrix():
    """The clean, uncached, in-process reference run."""
    return run_matrix(APPS, CONFIGS, TEST_SCALE)


def assert_bit_identical(results, reference):
    assert list(results) == list(reference)
    for app in reference:
        assert list(results[app]) == list(reference[app])
        for name in reference[app]:
            chaotic = results[app][name]
            clean = reference[app][name]
            assert chaotic.cycles == clean.cycles, (app, name)
            assert chaotic.ipc == clean.ipc, (app, name)
            assert (chaotic.stats.issue_histogram
                    == clean.stats.issue_histogram), (app, name)
            assert (chaotic.nvm_pending_samples
                    == clean.nvm_pending_samples), (app, name)
            assert (chaotic.consistency.verdict
                    == clean.consistency.verdict), (app, name)


class TestConvergenceUnderChaos:
    def test_kill_plus_cache_corruption(self, tmp_path, serial_matrix):
        plan = FaultPlan(
            faults=[
                FaultSpec(point="worker", action="kill", match="update/*"),
                FaultSpec(point="store", action="truncate",
                          match="result:*"),
                FaultSpec(point="store", action="bitflip", match="result:*",
                          times=2),
            ],
            state_dir=str(tmp_path / "chaos-state"),
            seed=2021)
        with plan.installed():
            results = run_matrix_parallel(
                APPS, CONFIGS, TEST_SCALE, max_workers=2,
                cache=True, cache_dir=tmp_path / "cache",
                retries=3, backoff=0.01)

        # Despite a murdered worker and two corrupted cache entries, the
        # matrix converged to the clean serial results, bit for bit.
        assert_bit_identical(results, serial_matrix)

        # Every fault actually fired (the plan wasn't a no-op).
        spent = summarize_state(plan)
        assert spent["worker[update/*]:kill"] == 1
        assert spent["store[result:*]:truncate"] == 1
        assert spent["store[result:*]:bitflip"] == 2

        # The execution story is on the record.
        report = last_matrix_report()
        assert report is not None and report.all_succeeded
        assert report.pool_respawns >= 1
        assert report.total_retries >= 1
        killed = [g for g in report.groups if g.group.startswith("update/")]
        assert any(len(g.attempts) > 1 for g in killed)

        # Warm self-heal: the truncated (and flipped) first entry and the
        # bit-flipped second one read as misses, get recomputed, and the
        # warm run is again bit-identical.
        warm = run_matrix_parallel(
            APPS, CONFIGS, TEST_SCALE, max_workers=2,
            cache=True, cache_dir=tmp_path / "cache")
        assert_bit_identical(warm, serial_matrix)
        # Exactly two result entries were damaged, so exactly two cells
        # re-simulated; the rest resumed from the cache.
        assert last_matrix_report().resumed_from_cache == N_CELLS - 2

    def test_stall_blows_the_timeout_and_retries(self, tmp_path,
                                                 serial_matrix):
        plan = FaultPlan(
            faults=[FaultSpec(point="run_one", action="stall",
                              seconds=10.0)],
            state_dir=str(tmp_path / "stall-state"),
            seed=3)
        with plan.installed():
            results = run_matrix_parallel(
                APPS, CONFIGS, TEST_SCALE, max_workers=2,
                cache=False, timeout=1.0, retries=2, backoff=0.01)
        assert_bit_identical(results, serial_matrix)
        report = last_matrix_report()
        assert report.all_succeeded
        outcomes = [a.outcome for g in report.groups for a in g.attempts]
        assert "timeout" in outcomes


class TestInterruptedMatrixResumes:
    def test_resume_re_simulates_only_unfinished_groups(self, tmp_path,
                                                        serial_matrix):
        # Every attempt at a swap group fails: the matrix is "interrupted"
        # with update's groups already persisted to the result cache.
        plan = FaultPlan(
            faults=[FaultSpec(point="worker", action="raise",
                              match="swap/*", times=99)],
            state_dir=str(tmp_path / "raise-state"),
            seed=1)
        before = workload_base.BUILD_COUNT
        with plan.installed():
            with pytest.raises(SupervisorError) as excinfo:
                run_matrix_parallel(
                    APPS, CONFIGS, TEST_SCALE, max_workers=1,
                    cache=True, cache_dir=tmp_path / "cache",
                    retries=0, backoff=0.0)
        # The failure is precise: swap's groups, nobody else's.
        failed = {g.group for g in excinfo.value.report.failed()}
        assert failed == {"swap/%s" % m
                          for m in {c.fence_mode for c in CONFIGS}}
        # update's groups were built and persisted before the crash.
        assert workload_base.BUILD_COUNT - before == N_MODES

        # The rerun resumes: update comes from the cache (zero builds),
        # only swap's groups are simulated.
        between = workload_base.BUILD_COUNT
        results = run_matrix_parallel(
            APPS, CONFIGS, TEST_SCALE, max_workers=1,
            cache=True, cache_dir=tmp_path / "cache")
        assert workload_base.BUILD_COUNT - between == N_MODES
        assert last_matrix_report().resumed_from_cache == len(CONFIGS)
        assert_bit_identical(results, serial_matrix)
