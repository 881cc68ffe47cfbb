"""End-to-end service tests over real HTTP on an ephemeral port.

Covers the subsystem's three load-bearing guarantees:

* **exactly-once**: duplicate submissions of one spec — queued or
  in-flight — run the simulation exactly once (single-flight), and
  later duplicates are served from the in-process registry or the
  persistent result cache without re-simulating;
* **backpressure**: a full queue rejects with 429 + Retry-After
  instead of accepting unbounded work;
* **bit-identical**: results served over HTTP equal serial
  :func:`repro.harness.runner.run_matrix` output field for field.
"""

import http.client
import json
import threading

import pytest

from repro.harness import CONFIGURATIONS, run_matrix
from repro.harness.digest import run_digest
from repro.service import JobSpec, ServiceClient, ThreadedServer
from repro.service.client import Backpressure, ServiceError
from repro.service.queue import BoundedJobQueue
from repro.workloads import Scale
from tests.golden.identity import run_identity

SCALE = Scale(ops_per_txn=5, txns=2)


def spec_for(workload, config, **overrides):
    fields = dict(kind="simulate", workload=workload, config=config,
                  ops_per_txn=SCALE.ops_per_txn, txns=SCALE.txns,
                  seed=SCALE.seed)
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


class TestBitIdentical:
    def test_served_results_equal_serial_run_matrix(self, client):
        """The acceptance matrix: B/WB x update/swap served over HTTP,
        compared digest-for-digest against the serial runner."""
        workloads, configs = ["update", "swap"], ["B", "WB"]
        serial = run_matrix(workloads,
                            [c for c in CONFIGURATIONS if c.name in configs],
                            SCALE)
        statuses = client.submit_matrix(workloads, configs,
                                        SCALE.ops_per_txn, SCALE.txns)
        finals = client.wait_all(statuses)
        assert all(status["state"] == "done" for status in finals)
        index = 0
        for workload in workloads:
            for config in configs:
                reference = serial[workload][config]
                served = client.result_pickle(statuses[index]["id"])
                assert run_identity(served) == run_identity(reference)
                assert served.cycles == reference.cycles
                assert served.stats == reference.stats
                assert list(served.persist_log) == \
                    list(reference.persist_log)
                summary = client.result(statuses[index]["id"])
                assert summary["digest"] == run_digest(reference)
                assert summary["cycles"] == reference.cycles
                index += 1


class TestExactlyOnce:
    def test_single_flight_coalesces_queued_duplicates(self, server, client):
        server.call(server.scheduler.pause)
        first = client.submit(spec_for("update", "B"))
        dup_one = client.submit(spec_for("update", "B"))
        dup_two = client.submit(spec_for("update", "B"))
        assert first["disposition"] == "created"
        assert dup_one["disposition"] == "coalesced"
        assert dup_two["disposition"] == "coalesced"
        assert dup_one["id"] == first["id"] == dup_two["id"]
        server.call(server.scheduler.resume)
        final = client.wait(first["id"])
        assert final["state"] == "done"
        assert final["coalesced"] == 2
        samples = client.metric_samples()
        assert samples["repro_simulations_run_total"] == 1
        assert samples["repro_singleflight_coalesced_total"] == 2

    def test_same_spec_different_seeds_all_complete(self, server, client):
        """Seeds are part of a batch task's identity: jobs differing
        only by seed must not collide in the dispatch bookkeeping
        (a colliding task ID left all but one stuck RUNNING)."""
        server.call(server.scheduler.pause)
        statuses = [client.submit(spec_for("update", "B", seed=2021 + i))
                    for i in range(4)]
        assert len({status["id"] for status in statuses}) == 4
        server.call(server.scheduler.resume)
        finals = client.wait_all(statuses)
        assert all(status["state"] == "done" for status in finals)
        samples = client.metric_samples()
        assert samples["repro_simulations_run_total"] == 4

    def test_concurrent_duplicate_submissions_run_once(self, server):
        """Ten clients race to submit the same spec: one simulation."""
        results = []

        def submit():
            local = ServiceClient(port=server.port, client_id="racer")
            status = local.submit(spec_for("swap", "WB"))
            results.append(local.wait(status["id"]))

        threads = [threading.Thread(target=submit) for _ in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert len(results) == 10
        assert len({status["id"] for status in results}) == 1
        assert all(status["state"] == "done" for status in results)
        samples = ServiceClient(port=server.port).metric_samples()
        assert samples["repro_simulations_run_total"] == 1

    def test_duplicate_after_completion_not_rerun(self, client):
        first = client.submit(spec_for("update", "IQ"))
        client.wait(first["id"])
        again = client.submit(spec_for("update", "IQ"))
        assert again["disposition"] == "completed"
        assert again["id"] == first["id"]
        assert client.metric_samples()["repro_simulations_run_total"] == 1

    def test_warm_cache_across_restart(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ThreadedServer(max_workers=1, cache_dir=cache_dir) as first:
            cold_client = ServiceClient(port=first.port)
            status = cold_client.submit(spec_for("update", "U"))
            cold_client.wait(status["id"])
            cold = cold_client.result(status["id"])
        with ThreadedServer(max_workers=1, cache_dir=cache_dir) as second:
            warm_client = ServiceClient(port=second.port)
            status = warm_client.submit(spec_for("update", "U"))
            assert status["disposition"] == "cached"
            assert status["state"] == "done"
            warm = warm_client.result(status["id"])
            assert warm["digest"] == cold["digest"]
            samples = warm_client.metric_samples()
            assert samples["repro_result_cache_hits_total"] == 1
            assert samples["repro_cache_hit_ratio"] == 1.0
            assert samples["repro_simulations_run_total"] == 0

    def test_batch_shares_one_trace_group(self, server, client):
        """Same workload + fence mode in one batch: one supervised
        group serves both configurations (IQ and WB both run ede)."""
        server.call(server.scheduler.pause)
        statuses = [client.submit(spec_for("update", name))
                    for name in ("IQ", "WB")]
        server.call(server.scheduler.resume)
        client.wait_all(statuses)
        samples = client.metric_samples()
        assert samples["repro_groups_executed_total"] == 1
        assert samples["repro_simulations_run_total"] == 2


class TestBackpressure:
    @pytest.fixture
    def small_server(self, tmp_path):
        with ThreadedServer(max_workers=1, cache_dir=tmp_path / "cache",
                            queue=BoundedJobQueue(max_depth=2)) as threaded:
            yield threaded

    def test_full_queue_rejects_with_retry_after(self, small_server):
        client = ServiceClient(port=small_server.port)
        small_server.call(small_server.scheduler.pause)
        client.submit(spec_for("update", "B"))
        client.submit(spec_for("update", "WB"))
        with pytest.raises(Backpressure) as info:
            client.submit(spec_for("swap", "B"))
        assert info.value.status == 429
        assert info.value.retry_after_s > 0
        samples = client.metric_samples()
        assert samples["repro_jobs_rejected_total"] == 1
        assert samples["repro_queue_depth"] == 2
        # The rejected job was never admitted anywhere.
        with pytest.raises(ServiceError):
            client.status("sim-missing")
        small_server.call(small_server.scheduler.resume)

    def test_retry_after_header_on_the_wire(self, small_server):
        client = ServiceClient(port=small_server.port)
        small_server.call(small_server.scheduler.pause)
        client.submit(spec_for("update", "B"))
        client.submit(spec_for("update", "WB"))
        conn = http.client.HTTPConnection("127.0.0.1", small_server.port,
                                          timeout=30)
        conn.request("POST", "/jobs", body=json.dumps(
            {"spec": spec_for("swap", "B").to_dict()}).encode(),
            headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read().decode())
        conn.close()
        assert response.status == 429
        assert int(response.headers["Retry-After"]) >= 1
        assert body["retry_after_s"] > 0
        small_server.call(small_server.scheduler.resume)

    def test_capacity_frees_after_drain(self, small_server):
        client = ServiceClient(port=small_server.port)
        statuses = [client.submit(spec_for("update", "B")),
                    client.submit(spec_for("update", "WB"))]
        client.wait_all(statuses)
        accepted = client.submit(spec_for("swap", "B"))
        assert accepted["disposition"] == "created"
        client.wait(accepted["id"])


class TestHttpSurface:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["paused"] is False

    def test_metrics_exposes_required_series(self, client):
        status = client.submit(spec_for("update", "B"))
        client.wait(status["id"])
        text = client.metrics()
        for required in ("repro_queue_depth",
                         "repro_cache_hit_ratio",
                         "repro_singleflight_coalesced_total",
                         'repro_jobs_completed_total{outcome="done"}',
                         "repro_job_latency_seconds_count"):
            assert required in text, required

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit({"kind": "simulate", "workload": "nope",
                           "config": "B"})
        assert info.value.status == 400
        assert "unknown workload" in str(info.value)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.status("sim-does-not-exist")
        assert info.value.status == 404

    def test_result_before_done_is_409(self, server, client):
        server.call(server.scheduler.pause)
        status = client.submit(spec_for("update", "B"))
        with pytest.raises(ServiceError) as info:
            client.result(status["id"])
        assert info.value.status == 409
        server.call(server.scheduler.resume)
        client.wait(status["id"])

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/frobnicate")
        assert info.value.status == 404

    def test_sse_stream_replays_to_terminal(self, server, client):
        server.call(server.scheduler.pause)
        status = client.submit(spec_for("update", "SU"))
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        conn.request("GET", "/jobs/%s/events" % status["id"])
        server.call(server.scheduler.resume)
        response = conn.getresponse()
        assert response.getheader("Content-Type") == "text/event-stream"
        body = response.read().decode()
        conn.close()
        events = [line.split(": ", 1)[1] for line in body.splitlines()
                  if line.startswith("event: ")]
        assert events[0] == "queued"
        assert events[-1] == "done"
        payloads = [json.loads(line.split(": ", 1)[1])
                    for line in body.splitlines()
                    if line.startswith("data: ")]
        assert all(p["job"] == status["id"] for p in payloads)


class TestAnalysisJobs:
    def test_analysis_served_and_deduped(self, server, client):
        spec = JobSpec(kind="analyze", workload="update", config="ede",
                       ops_per_txn=SCALE.ops_per_txn, txns=SCALE.txns)
        first = client.submit(spec)
        final = client.wait(first["id"])
        assert final["state"] == "done"
        report = client.result(first["id"])["report"]
        assert report["target"] == "update"
        assert report["mode"] == "ede"
        assert "findings" in report
        again = client.submit(spec)
        assert again["disposition"] == "completed"
