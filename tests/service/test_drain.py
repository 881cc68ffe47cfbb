"""Graceful-drain tests: in-process semantics and the SIGTERM path.

A draining server must refuse *new* admissions with 503 + Retry-After
while status/result/metrics queries keep working, finish every admitted
job (persisting each group's results to the cache on completion), then
exit cleanly.  The subprocess test drives the real signal path:
``python -m repro.service serve`` gets SIGTERM mid-backlog and must
exit 0 with every admitted result in the shared cache.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.service import DrainingError, JobSpec, ServiceClient, ThreadedServer
from repro.service.client import ServiceError


def spec_for(workload, config, **overrides):
    fields = dict(kind="simulate", workload=workload, config=config,
                  ops_per_txn=4, txns=2, seed=2021)
    fields.update(overrides)
    return JobSpec(**fields)


@pytest.fixture
def server(tmp_path):
    with ThreadedServer(max_workers=1,
                        cache_dir=tmp_path / "cache") as threaded:
        yield threaded


@pytest.fixture
def client(server):
    return ServiceClient(port=server.port, client_id="pytest")


class TestDrainSemantics:
    def test_draining_refuses_new_admissions_with_503(self, server, client):
        server.call(server.scheduler.pause)
        admitted = client.submit(spec_for("update", "B"))
        server.call(server.scheduler.begin_drain)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec_for("update", "WB"))
        assert excinfo.value.status == 503
        assert excinfo.value.payload["draining"] is True
        assert excinfo.value.payload["retry_after_s"] > 0
        # Already-admitted work still finishes (drain overrides pause)
        # and read paths keep working throughout.
        final = client.wait(admitted["id"])
        assert final["state"] == "done"
        assert client.healthz()["draining"] is True
        assert "repro_jobs_rejected_total 1" in client.metrics()

    def test_drain_raises_in_scheduler(self, server):
        server.call(server.scheduler.begin_drain)

        def submit():
            return server.scheduler.submit(spec_for("swap", "B"))

        with pytest.raises(DrainingError):
            server.call(submit)

    def test_healthz_reports_drain_state(self, server, client):
        assert client.healthz()["status"] == "ok"
        server.call(server.scheduler.begin_drain)
        health = client.healthz()
        assert health["status"] == "draining"
        assert health["draining"] is True


class TestSigtermDrain:
    def test_sigterm_finishes_backlog_and_exits_zero(self, tmp_path):
        """The acceptance path: SIGTERM mid-backlog -> refuse new work,
        finish admitted jobs, persist results, exit 0."""
        cache_dir = tmp_path / "cache"
        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1]) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", "0", "--port-file", str(port_file),
             "--workers", "1", "--cache-dir", str(cache_dir)],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists() or not port_file.read_text().strip():
                assert process.poll() is None, "server died during startup"
                assert time.monotonic() < deadline, "no port file within 60s"
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            client = ServiceClient(port=port, client_id="drain-test")
            specs = [spec_for("update", "B", seed=3000 + i)
                     for i in range(3)]
            statuses = [client.submit_retrying(spec) for spec in specs]
            assert len({status["id"] for status in statuses}) == 3
            # SIGTERM with the backlog admitted but (likely) unfinished.
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
        text = output.decode(errors="replace")
        assert process.returncode == 0, text
        assert "draining: refusing new jobs" in text
        # Every admitted job's result was persisted before exit.
        entries = list(cache_dir.glob("*.pkl"))
        assert len(entries) >= 3, \
            "expected >=3 cached results after drain, found %d in %s\n%s" \
            % (len(entries), cache_dir, text)


class TestSubmitRetrying:
    """submit_retrying honours the server's Retry-After with jitter."""

    class FakeRng:
        def __init__(self, values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    class StubClient(ServiceClient):
        """Overrides the transport: scripted submit outcomes."""

        def __init__(self, outcomes):
            super().__init__(port=1)
            self.outcomes = list(outcomes)

        def submit(self, spec, priority=0):
            outcome = self.outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return dict(outcome)

    def backpressure(self, retry_after_s):
        from repro.service.client import Backpressure

        return Backpressure(429, {"error": "queue full",
                                  "retry_after_s": retry_after_s})

    def test_honours_server_hint_with_jitter_and_reports_wait(self):
        stub = self.StubClient([
            self.backpressure(2.0),
            self.backpressure(4.0),
            {"id": "sim-x", "state": "queued"},
        ])
        sleeps = []
        status = stub.submit_retrying(
            spec_for("update", "B"), jitter=0.25,
            rng=self.FakeRng([0.5, 1.0]), sleep=sleeps.append)
        # 2.0 * (1 + 0.25*0.5) = 2.25; 4.0 * (1 + 0.25*1.0) = 5.0
        assert sleeps == [pytest.approx(2.25), pytest.approx(5.0)]
        assert status["queue_full_retries"] == 2
        assert status["queue_wait_s"] == pytest.approx(sum(sleeps))
        assert status["id"] == "sim-x"

    def test_caps_sleep_at_max(self):
        stub = self.StubClient([
            self.backpressure(300.0),
            {"id": "sim-y", "state": "queued"},
        ])
        sleeps = []
        stub.submit_retrying(spec_for("update", "B"), max_sleep_s=10.0,
                             rng=self.FakeRng([1.0]), sleep=sleeps.append)
        assert sleeps == [pytest.approx(10.0)]

    def test_first_try_admission_reports_zero_wait(self):
        stub = self.StubClient([{"id": "sim-z", "state": "queued"}])
        status = stub.submit_retrying(spec_for("update", "B"),
                                      sleep=lambda _s: None)
        assert status["queue_wait_s"] == 0
        assert status["queue_full_retries"] == 0

    def test_gives_up_past_deadline(self):
        from repro.service.client import Backpressure

        stub = self.StubClient([self.backpressure(5.0)] * 50)
        with pytest.raises(Backpressure):
            stub.submit_retrying(spec_for("update", "B"),
                                 give_up_after_s=0.0,
                                 sleep=lambda _s: None)


def test_drain_timeout_knob(monkeypatch):
    from repro.harness.envutil import knob

    monkeypatch.delenv("REPRO_DRAIN_TIMEOUT", raising=False)
    assert knob("REPRO_DRAIN_TIMEOUT") == 60.0
    monkeypatch.setenv("REPRO_DRAIN_TIMEOUT", "5.5")
    assert knob("REPRO_DRAIN_TIMEOUT") == 5.5
    monkeypatch.setenv("REPRO_DRAIN_TIMEOUT", "soon")
    with pytest.raises(ValueError, match="REPRO_DRAIN_TIMEOUT"):
        knob("REPRO_DRAIN_TIMEOUT")
