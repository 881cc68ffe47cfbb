"""Coordinator crash-recovery from the write-ahead journal, in-process.

These tests restart :class:`ThreadedCoordinator` instances over the same
journal directory and prove the durable half of the cluster's story:
routes survive a coordinator restart, unfinished jobs are re-driven onto
(possibly brand-new) shards, a torn journal tail from a crash mid-append
is tolerated, and the journal compacts itself under load — all while
the cluster-wide exactly-once guarantee holds.

The subprocess analogue (SIGKILL mid-matrix, restart from the journal)
lives in ``test_journal_e2e.py``.
"""

import pytest

from repro.cluster.coordinator import ThreadedCoordinator
from repro.harness import CONFIGURATIONS
from repro.harness.runner import run_one
from repro.harness.digest import run_digest
from repro.service import JobSpec, ServiceClient, ThreadedServer
from repro.workloads import Scale
from tests.golden.identity import run_identity

SCALE = Scale(ops_per_txn=4, txns=2)


def spec_for(workload, config, **overrides):
    fields = dict(kind="simulate", workload=workload, config=config,
                  ops_per_txn=SCALE.ops_per_txn, txns=SCALE.txns,
                  seed=SCALE.seed)
    fields.update(overrides)
    return JobSpec(**fields)


def simulations_run(client):
    return sum(value for name, value in client.metric_samples().items()
               if name.startswith("repro_simulations_run_total"))


@pytest.fixture
def shards(tmp_path):
    cache = tmp_path / "cache"
    servers = [ThreadedServer(max_workers=1, cache_dir=cache)
               for _ in range(2)]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


def _coordinator(shards, journal_dir, **kwargs):
    kwargs.setdefault("probe_interval_s", 0.2)
    kwargs.setdefault("probe_timeout_s", 2.0)
    return ThreadedCoordinator(
        shards=[("127.0.0.1", s.port) for s in shards],
        journal_dir=journal_dir, **kwargs)


class TestRestartRecovery:
    def test_routes_survive_a_clean_restart(self, shards, tmp_path):
        journal_dir = tmp_path / "journal"
        with _coordinator(shards, journal_dir) as first:
            client = ServiceClient(port=first.port, client_id="pytest")
            statuses = [client.submit(spec_for("update", "B", seed=s))
                        for s in (1, 2, 3)]
            finals = client.wait_all(statuses)
            assert all(status["state"] == "done" for status in finals)
            health = client.healthz()
            assert health["journal"]["bytes"] > 0
            assert health["journal"]["records_appended"] >= 9  # 3x(a,r,d)
            shard_of = {s["id"]: s["shard"] for s in finals}

        with _coordinator(shards, journal_dir) as second:
            client = ServiceClient(port=second.port, client_id="pytest")
            health = client.healthz()
            assert health["journal"]["recovered_jobs"] == 3
            routes = second.call(
                lambda: {job_id: (route.shard, route.terminal)
                         for job_id, route
                         in second.coordinator.routes.items()})
            assert set(routes) == set(shard_of)
            for job_id, (shard, terminal) in routes.items():
                assert shard == shard_of[job_id]
                assert terminal
            # Status reads follow the recovered routes.
            for status in statuses:
                assert client.status(status["id"])["state"] == "done"
            # Nothing was re-executed: every job was journaled terminal.
            assert simulations_run(client) == 3

    def test_unfinished_jobs_rerun_on_fresh_shards(self, shards, tmp_path):
        """Kill coordinator AND shards with work still queued: a new
        coordinator over brand-new shard processes re-drives every
        journaled job from its stored submit body, exactly once."""
        journal_dir = tmp_path / "journal"
        cache = tmp_path / "cache2"
        specs = [spec_for("update", "B", seed=100 + s) for s in range(4)]

        with _coordinator(shards, journal_dir) as first:
            client = ServiceClient(port=first.port, client_id="pytest")
            for server in shards:
                server.call(server.scheduler.pause)
            statuses = [client.submit(spec) for spec in specs]
            assert all(s["state"] == "queued" for s in statuses)
        # Coordinator gone; now the shards die too, queued work and all.
        for server in shards:
            server.stop()

        replacements = [ThreadedServer(max_workers=1, cache_dir=cache)
                        for _ in range(2)]
        for server in replacements:
            server.start()
        try:
            with _coordinator(replacements, journal_dir) as second:
                client = ServiceClient(port=second.port, client_id="pytest")
                finals = client.wait_all(statuses, timeout=120)
                assert all(s["state"] == "done" for s in finals)
                samples = client.metric_samples()
                assert samples.get(
                    "repro_cluster_journal_resubmitted_total", 0) == 4
                # Exactly-once across the crash: four unique sims, four runs.
                assert simulations_run(client) == 4
                config = next(c for c in CONFIGURATIONS if c.name == "B")
                for spec, status in zip(specs, statuses):
                    reference = run_one(spec.workload, config, spec.scale)
                    summary = client.result(status["id"])
                    assert summary["digest"] == run_digest(reference)
                    assert run_identity(client.result_pickle(
                        status["id"])) == run_identity(reference)
        finally:
            for server in replacements:
                server.stop()

    def test_torn_journal_tail_is_tolerated(self, shards, tmp_path):
        journal_dir = tmp_path / "journal"
        with _coordinator(shards, journal_dir) as first:
            client = ServiceClient(port=first.port, client_id="pytest")
            status = client.submit(spec_for("swap", "WB"))
            client.wait(status["id"])
        journal_path = journal_dir / "coordinator.journal"
        with open(journal_path, "ab") as handle:
            handle.write(b"RPJ1\x00crash-torn-garbage")

        with _coordinator(shards, journal_dir) as second:
            client = ServiceClient(port=second.port, client_id="pytest")
            assert client.healthz()["journal"]["recovered_jobs"] == 1
            truncated = second.call(
                lambda: second.coordinator.journal.replay_truncated)
            assert truncated > 0
            assert client.status(status["id"])["state"] == "done"


class TestJournalCompaction:
    def test_journal_compacts_under_load(self, shards, tmp_path):
        journal_dir = tmp_path / "journal"
        with _coordinator(shards, journal_dir,
                          journal_compact_bytes=4096) as threaded:
            client = ServiceClient(port=threaded.port, client_id="pytest")
            statuses = [client.submit(spec_for("update", "B", seed=500 + s))
                        for s in range(12)]
            finals = client.wait_all(statuses)
            assert all(s["state"] == "done" for s in finals)
            # Submitting leaves admit records behind; terminal jobs
            # compact to route+done, so the log stays near the bound.
            health = client.healthz()
            assert health["journal"]["compactions"] >= 1
            assert health["journal"]["bytes"] <= 4096 * 2

        with _coordinator(shards, journal_dir) as second:
            client = ServiceClient(port=second.port, client_id="pytest")
            assert client.healthz()["journal"]["recovered_jobs"] == 12
            for status in statuses:
                assert client.status(status["id"])["state"] == "done"
