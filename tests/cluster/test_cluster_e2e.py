"""Cluster end-to-end tests: coordinator + in-process shard servers.

The load-bearing guarantees:

* **cluster-wide exactly-once** — the same spec submitted to the
  coordinator concurrently, many times, runs one simulation across the
  whole fleet (consistent-hash affinity + per-shard single-flight);
* **bit-identical** — results served through the coordinator equal
  serial :func:`repro.harness.runner.run_matrix` digests exactly;
* **failure routing** — killing a shard trips its breaker, evicts it
  from the ring and re-routes its queued jobs to the deterministic next
  owner, with the matrix still completing bit-identically;
* **federation** — one ``/metrics`` page carries every shard's series
  under ``shard=`` labels plus the coordinator's own.
"""

import threading

import pytest

from repro.cluster.coordinator import ThreadedCoordinator
from repro.harness import CONFIGURATIONS, run_matrix
from repro.harness.digest import run_digest
from repro.service import JobSpec, ServiceClient, ThreadedServer
from repro.service.client import Backpressure
from repro.service.jobs import job_id_for
from repro.workloads import Scale
from tests.golden.identity import run_identity

SCALE = Scale(ops_per_txn=4, txns=2)


def spec_for(workload, config, **overrides):
    fields = dict(kind="simulate", workload=workload, config=config,
                  ops_per_txn=SCALE.ops_per_txn, txns=SCALE.txns,
                  seed=SCALE.seed)
    fields.update(overrides)
    return JobSpec(**fields)


@pytest.fixture
def shards(tmp_path):
    """Two in-process shard servers over one shared cache directory."""
    cache = tmp_path / "cache"
    servers = [ThreadedServer(max_workers=1, cache_dir=cache)
               for _ in range(2)]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


@pytest.fixture
def coordinator(shards):
    with ThreadedCoordinator(
            shards=[("127.0.0.1", s.port) for s in shards],
            probe_interval_s=0.2, probe_timeout_s=2.0) as threaded:
        yield threaded


@pytest.fixture
def client(coordinator):
    return ServiceClient(port=coordinator.port, client_id="pytest")


def simulations_run(client):
    """Sum of repro_simulations_run_total across every shard label."""
    return sum(value for name, value in client.metric_samples().items()
               if name.startswith("repro_simulations_run_total"))


class TestExactlyOnce:
    def test_ten_concurrent_duplicates_run_once(self, client, coordinator):
        """Ten threads race the same spec into the coordinator: every
        submission lands on the same shard (hash affinity), the shard
        coalesces them, and exactly one simulation runs cluster-wide."""
        results = []
        errors = []

        def submit():
            local = ServiceClient(port=coordinator.port, client_id="racer")
            try:
                status = local.submit_retrying(spec_for("swap", "WB"))
                results.append(local.wait(status["id"]))
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors
        assert len(results) == 10
        assert len({status["id"] for status in results}) == 1
        assert len({status["shard"] for status in results}) == 1
        assert all(status["state"] == "done" for status in results)
        assert simulations_run(client) == 1

    def test_sequential_duplicate_is_cache_or_registry_hit(self, client):
        first = client.submit(spec_for("update", "B"))
        client.wait(first["id"])
        again = client.submit(spec_for("update", "B"))
        assert again["id"] == first["id"]
        assert again["shard"] == first["shard"]
        assert simulations_run(client) == 1


class TestBitIdentical:
    def test_matrix_through_coordinator_equals_serial(self, client):
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
                summary = client.result(statuses[index]["id"])
                assert summary["digest"] == run_digest(reference)
                served = client.result_pickle(statuses[index]["id"])
                assert run_identity(served) == run_identity(reference)
                index += 1


class TestFederation:
    def test_metrics_carry_shard_labels_and_cluster_series(self, client):
        client.wait(client.submit(spec_for("update", "B"))["id"])
        page = client.metrics()
        assert 'shard="shard0"' in page or 'shard="shard1"' in page
        assert "repro_cluster_jobs_routed_total" in page
        assert "repro_cluster_shards_available" in page
        # Well-formed: one HELP per family even with two shards merged.
        help_lines = [line for line in page.splitlines()
                      if line.startswith("# HELP repro_jobs_submitted_total ")]
        assert len(help_lines) == 1

    def test_healthz_reports_every_shard(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["shards"]) == {"shard0", "shard1"}
        assert all(info["breaker"] == "closed"
                   for info in health["shards"].values())


class TestEventStreamThroughCoordinator:
    def test_wait_via_events_and_resumable_ids(self, client, coordinator):
        """The coordinator pipes shard SSE streams through verbatim —
        including event IDs — and forwards a client's Last-Event-ID so
        a watcher can resume through the proxy layer."""
        status = client.submit(spec_for("swap", "B"))
        final = client.wait(status["id"], via_events=True)
        assert final["state"] == "done"
        events = list(client.watch(status["id"]))
        assert [e["event"] for e in events][-1] == "done"

        import http.client as http_client
        conn = http_client.HTTPConnection("127.0.0.1", coordinator.port,
                                          timeout=30)
        conn.request("GET", "/jobs/%s/events" % status["id"],
                     headers={"Last-Event-ID": "0"})
        response = conn.getresponse()
        body = response.read().decode()
        conn.close()
        ids = [int(line.split(":", 1)[1]) for line in body.splitlines()
               if line.startswith("id:")]
        assert ids and ids[0] == 1      # replay resumed after event 0
        assert ids == list(range(1, 1 + len(ids)))


class TestRateLimit:
    def test_burst_exhaustion_gets_429_and_isolated_tenants(self, shards):
        with ThreadedCoordinator(
                shards=[("127.0.0.1", s.port) for s in shards],
                probe_interval_s=5.0, rate=0.5, burst=2) as coordinator:
            greedy = ServiceClient(port=coordinator.port, client_id="greedy")
            greedy.submit(spec_for("update", "B"))
            greedy.submit(spec_for("update", "WB"))
            with pytest.raises(Backpressure) as excinfo:
                greedy.submit(spec_for("update", "SU"))
            assert excinfo.value.retry_after_s > 0
            # Another tenant's bucket is untouched.
            polite = ServiceClient(port=coordinator.port, client_id="polite")
            status = polite.submit(spec_for("update", "IQ"))
            assert status["state"] in ("queued", "running", "done")


class TestShardFailure:
    def test_kill_evict_reroute_bit_identical(self, shards, coordinator):
        """Kill a shard with queued work: probes trip its breaker and
        evict it, queued jobs re-route to the surviving shard, and the
        full job set completes with serial-identical digests."""
        client = ServiceClient(port=coordinator.port, client_id="chaos")
        # Freeze both shards so submissions stay queued at kill time.
        for server in shards:
            server.call(server.scheduler.pause)
        # A job id hashes the source fingerprint, so the shard a seed
        # lands on changes with every source edit: pick four seeds that
        # the coordinator's ring places on each shard.
        ring = coordinator.coordinator.ring
        per_shard = {"shard0": [], "shard1": []}
        seed = 2021
        while min(len(picked) for picked in per_shard.values()) < 4:
            spec = spec_for("update", "B", seed=seed)
            picked = per_shard[ring.lookup(job_id_for(spec))]
            if len(picked) < 4:
                picked.append(spec)
            seed += 1
        specs = per_shard["shard0"] + per_shard["shard1"]
        statuses = [client.submit(spec) for spec in specs]
        by_shard = {}
        for status in statuses:
            by_shard.setdefault(status["shard"], []).append(status)
        assert len(by_shard) == 2, \
            "8 seeds should spread over both shards: %s" % by_shard.keys()

        victim_name = "shard0"
        victim = shards[0]
        survivor = shards[1]
        victim_jobs = by_shard.get(victim_name, [])
        # Hard-kill the victim (no drain), then let the survivor work.
        victim.stop()
        survivor.call(survivor.scheduler.resume)

        finals = client.wait_all(statuses, timeout=120)
        assert all(status["state"] == "done" for status in finals)
        health = client.healthz()
        assert health["shards"][victim_name]["evicted"]
        assert health["shards"][victim_name]["breaker"] == "open"
        assert health["shards"][victim_name]["breaker_trips"] >= 1
        if victim_jobs:
            samples = client.metric_samples()
            assert samples.get("repro_cluster_reroutes_total", 0) >= \
                len(victim_jobs)

        from repro.harness.runner import run_one

        config = next(c for c in CONFIGURATIONS if c.name == "B")
        for spec, status in zip(specs, statuses):
            reference = run_one(spec.workload, config, spec.scale)
            summary = client.result(status["id"])
            assert summary["digest"] == run_digest(reference)
            assert run_identity(client.result_pickle(status["id"])) == \
                run_identity(reference)
