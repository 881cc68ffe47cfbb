"""The supervisor: timeouts, retries, worker death, degradation."""

import multiprocessing
import os
import time

import pytest

from repro.harness.supervisor import (
    SupervisorConfig,
    SupervisorError,
    run_supervised,
)

FAST = dict(timeout=None, retries=2, backoff=0.01)


def _claim(claim_dir, name):
    """Cross-process once-only marker (same trick as the chaos plan)."""
    try:
        fd = os.open(os.path.join(claim_dir, name),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


# Workers are module-level so they pickle into pool processes.

def _double(payload):
    return payload * 2


def _flaky(payload):
    """Fails the first `fails` attempts (across all processes), then works."""
    claim_dir, fails, value = payload
    for attempt in range(fails):
        if _claim(claim_dir, "flaky%d" % attempt):
            raise RuntimeError("transient failure %d" % attempt)
    return value


def _kill_n(payload):
    """Dies (os._exit) the first `kills` attempts; survives after that.

    In the main process (serial/degraded mode) it raises instead — the
    same demotion the chaos plan applies — so a test can never kill the
    pytest process itself.
    """
    claim_dir, kills, value = payload
    for attempt in range(kills):
        if _claim(claim_dir, "kill%d" % attempt):
            if multiprocessing.parent_process() is not None:
                os._exit(77)
            raise RuntimeError("worker death (demoted in main process)")
    return value


def _sleepy(payload):
    """Stalls well past any test timeout on its first attempt.

    The claim is keyed by the task's value: concurrently running tasks
    must not race for one shared claim (only the intended task stalls).
    """
    claim_dir, seconds, value = payload
    if _claim(claim_dir, "sleep%d" % value):
        time.sleep(seconds)
    return value


def config(max_workers=1, **overrides):
    merged = dict(FAST)
    merged.update(overrides)
    return SupervisorConfig.from_env(max_workers=max_workers, **merged)


class TestHappyPath:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_results_and_report(self, workers):
        tasks = [("t%d" % n, n) for n in range(4)]
        results, report = run_supervised(tasks, _double, config(workers))
        assert results == {"t%d" % n: 2 * n for n in range(4)}
        assert report.all_succeeded
        assert report.total_retries == 0
        assert not report.failed()
        assert all(len(g.attempts) == 1 for g in report.groups)

    def test_on_result_fires_per_completion(self):
        seen = []
        run_supervised([("a", 1), ("b", 2)], _double, config(1),
                       on_result=lambda tid, value: seen.append((tid, value)))
        assert sorted(seen) == [("a", 2), ("b", 4)]

    def test_single_task_avoids_the_pool(self):
        # One group: the pool would cost a fork for no parallelism.
        _, report = run_supervised([("only", 3)], _double, config(8))
        assert report.groups[0].attempts[0].where == "serial"


class TestRetries:
    def test_transient_failure_retried_serial(self, tmp_path):
        tasks = [("flaky", (str(tmp_path), 1, 42))]
        results, report = run_supervised(tasks, _flaky, config(1))
        assert results == {"flaky": 42}
        group = report.group("flaky")
        assert group.succeeded and group.retries == 1
        assert group.attempts[0].outcome == "error"
        assert "transient failure" in group.failure_causes[0]

    def test_transient_failure_retried_pool(self, tmp_path):
        tasks = [("flaky", (str(tmp_path), 2, 7)), ("ok", (str(tmp_path), 0, 1))]
        results, report = run_supervised(tasks, _flaky, config(2))
        assert results == {"flaky": 7, "ok": 1}
        assert report.group("flaky").retries == 2
        assert report.group("ok").retries == 0

    def test_budget_exhaustion_is_reported_not_raised(self):
        results, report = run_supervised([("bad", 1), ("good", 2)], _mixed,
                                         config(1, retries=1))
        assert results == {"good": 20}
        assert not report.all_succeeded
        bad = report.group("bad")
        assert not bad.succeeded
        assert bad.failures == 2  # initial attempt + 1 retry
        assert all("always fails" in cause for cause in bad.failure_causes)

    def test_resolvers_follow_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        monkeypatch.setenv("REPRO_BACKOFF", "0.25")
        cfg = SupervisorConfig.from_env()
        assert (cfg.timeout_s, cfg.retries, cfg.backoff_s) == (12.5, 4, 0.25)
        cfg = SupervisorConfig.from_env(timeout=3, retries=1, backoff=0)
        assert (cfg.timeout_s, cfg.retries, cfg.backoff_s) == (3.0, 1, 0.0)
        monkeypatch.setenv("REPRO_TIMEOUT", "0")
        # 0 disables the timeout
        assert SupervisorConfig.from_env().timeout_s is None
        monkeypatch.setenv("REPRO_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            SupervisorConfig.from_env(retries=2)

    def test_backoff_is_exponential_and_capped(self):
        cfg = SupervisorConfig(backoff_s=1.0)
        assert cfg.backoff_delay(1) == 1.0
        assert cfg.backoff_delay(2) == 2.0
        assert cfg.backoff_delay(3) == 4.0
        assert cfg.backoff_delay(10) == 5.0  # BACKOFF_CAP_S
        assert SupervisorConfig(backoff_s=0).backoff_delay(3) == 0.0


def _mixed(payload):
    if payload == 1:
        raise RuntimeError("always fails: %r" % payload)
    return payload * 10


class TestWorkerDeath:
    def test_killed_worker_respawns_pool_and_converges(self, tmp_path):
        tasks = [("victim", (str(tmp_path), 1, 5)),
                 ("bystander", (str(tmp_path), 0, 6))]
        results, report = run_supervised(tasks, _kill_n, config(2))
        assert results == {"victim": 5, "bystander": 6}
        assert report.all_succeeded
        assert report.pool_respawns >= 1
        # Somebody observed the death; preemptions charge no retry budget.
        outcomes = [a.outcome for g in report.groups for a in g.attempts]
        assert "preempted" in outcomes
        assert all(g.failures == 0 for g in report.groups)

    def test_repeated_death_degrades_to_serial(self, tmp_path):
        # 4 kills vs a respawn budget of 1: the pool dies, dies again,
        # and the supervisor falls back to in-process execution, where
        # the remaining kill claims surface as plain (retryable) errors.
        tasks = [("a", (str(tmp_path), 4, 1)), ("b", (str(tmp_path), 0, 2))]
        results, report = run_supervised(
            tasks, _kill_n, config(2, retries=4, max_pool_respawns=1))
        assert results == {"a": 1, "b": 2}
        assert report.degraded_to_serial
        assert report.pool_respawns == 2  # budget + the final straw
        assert report.all_succeeded


class TestTimeouts:
    def test_stuck_worker_times_out_and_retries(self, tmp_path):
        tasks = [("slow", (str(tmp_path), 30.0, 9)),
                 ("quick", (str(tmp_path), 0.0, 8))]
        start = time.monotonic()
        results, report = run_supervised(
            tasks, _sleepy, config(2, timeout=0.5, retries=1))
        assert results == {"slow": 9, "quick": 8}
        # The stalled attempt was abandoned, not waited out.
        assert time.monotonic() - start < 20.0
        assert report.pool_respawns >= 1  # stranded worker forces a recycle
        slow = report.group("slow")
        assert "timeout" in [a.outcome for a in slow.attempts]
        assert any("wall-clock" in c for c in slow.failure_causes)

    def test_timeout_disabled_by_zero(self):
        cfg = SupervisorConfig.from_env(max_workers=2, timeout=0)
        assert cfg.timeout_s is None


class TestSupervisorError:
    def test_carries_report(self):
        report_obj = None
        try:
            raise SupervisorError("nope", report=_make_report())
        except SupervisorError as exc:
            report_obj = exc.report
        assert report_obj is not None and report_obj.groups == []


def _make_report():
    from repro.harness.supervisor import MatrixReport

    return MatrixReport()
