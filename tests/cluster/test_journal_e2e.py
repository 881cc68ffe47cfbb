"""The PR's acceptance e2e: SIGKILL the coordinator mid-matrix, restart
it from its journal, and finish with bit-identical digests and zero
duplicate shard executions — with and without network faults on the
coordinator->shard links.

Real processes everywhere: shards are :class:`LocalCluster` subprocess
workers, the coordinator runs as ``python -m repro.cluster coordinator``
so it can be killed with ``SIGKILL`` (no atexit, no flush, no mercy) and
restarted on the same port over the same ``--journal-dir``.

The teardown also asserts the satellite guarantee: a stopped
:class:`LocalCluster` leaves no port files or per-shard scratch dirs
behind.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.chaos.netproxy import NetFaultPlan, NetFaultSpec, ThreadedFaultProxy
from repro.cluster.local import LocalCluster
from repro.harness import CONFIGURATIONS, run_matrix
from repro.harness.digest import run_digest
from repro.service import JobSpec, ServiceClient
from repro.workloads import Scale
from tests.golden.identity import run_identity

WORKLOADS = ["update", "swap"]
CONFIG_NAMES = ["B", "WB"]
SCALE = Scale(ops_per_txn=4, txns=2)

#: Degraded-but-alive links: constant small latency with seeded jitter
#: on every connection, plus one outright refusal per link.  Faults that
#: could hide a *successful* admission from the coordinator (truncating
#: a submit response) are exercised in the unit tests instead — here
#: every fault preserves at-most-once on the wire so the zero-duplicate
#: assertion stays exact.
_CHAOS_PLAN = NetFaultPlan(
    faults=[NetFaultSpec(action="latency", times=-1, delay_s=0.01,
                         jitter_s=0.02),
            NetFaultSpec(action="refuse", times=1)],
    seed=7)


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spec(workload, config, seed=SCALE.seed):
    return JobSpec(kind="simulate", workload=workload, config=config,
                   ops_per_txn=SCALE.ops_per_txn, txns=SCALE.txns,
                   seed=seed)


def _spawn_coordinator(addresses, port, journal_dir, port_file, log_path):
    command = [sys.executable, "-m", "repro.cluster", "coordinator",
               "--port", str(port), "--port-file", str(port_file),
               "--journal-dir", str(journal_dir),
               "--probe-interval", "0.3"]
    for host, shard_port in addresses:
        command += ["--shard", "%s:%d" % (host, shard_port)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1]) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The test owns its proxies; the CLI must not stack more on top.
    env.pop("REPRO_NETPROXY_PLAN", None)
    with open(log_path, "ab") as log_handle:
        return subprocess.Popen(command, env=env, stdout=log_handle,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)


def _await_coordinator(port_file, port, timeout=60.0):
    client = ServiceClient(port=port, client_id="pytest-e2e")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if port_file.exists():
            try:
                if client.healthz()["role"] == "coordinator":
                    return client
            except Exception:
                pass
        time.sleep(0.1)
    raise AssertionError("coordinator never became healthy on port %d"
                         % port)


def _simulations_run(client):
    return sum(value for name, value in client.metric_samples().items()
               if name.startswith("repro_simulations_run_total"))


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "netfaults"])
def test_sigkill_midmatrix_restart_is_exactly_once_bitidentical(
        tmp_path, chaos):
    serial = run_matrix(
        WORKLOADS, [c for c in CONFIGURATIONS if c.name in CONFIG_NAMES],
        SCALE)
    cells = [(w, c) for w in WORKLOADS for c in CONFIG_NAMES]

    cluster = LocalCluster(shards=2, workdir=tmp_path / "cluster")
    proxies = []
    coordinator = None
    port_file = tmp_path / "coordinator.port"
    journal_dir = tmp_path / "journal"
    log_path = tmp_path / "coordinator.log"
    try:
        cluster.start()
        addresses = cluster.addresses
        if chaos:
            for host, shard_port in addresses:
                proxy = ThreadedFaultProxy(upstream_host=host,
                                           upstream_port=shard_port,
                                           plan=_CHAOS_PLAN)
                proxy.start()
                proxies.append(proxy)
            addresses = [("127.0.0.1", proxy.port) for proxy in proxies]

        port = _free_port()
        coordinator = _spawn_coordinator(addresses, port, journal_dir,
                                         port_file, log_path)
        client = _await_coordinator(port_file, port)

        # First half of the matrix, then kill -9 — no drain, no flush.
        statuses = [client.submit_retrying(_spec(w, c))
                    for w, c in cells[:2]]
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(timeout=30)
        assert journal_dir.joinpath("coordinator.journal").stat().st_size > 0

        # Restart on the same port from the same journal; finish the
        # matrix through the recovered coordinator.
        port_file.unlink()
        coordinator = _spawn_coordinator(addresses, port, journal_dir,
                                         port_file, log_path)
        client = _await_coordinator(port_file, port)
        health = client.healthz()
        assert health["journal"]["recovered_jobs"] >= len(statuses)
        statuses += [client.submit_retrying(_spec(w, c))
                     for w, c in cells[2:]]

        finals = client.wait_all(statuses, timeout=180)
        assert all(status["state"] == "done" for status in finals)

        # Bit-identical to the serial reference, cell by cell.
        for (workload, config), status in zip(cells, statuses):
            reference = serial[workload][config]
            summary = client.result(status["id"])
            assert summary["digest"] == run_digest(reference)
            assert run_identity(client.result_pickle(status["id"])) == \
                run_identity(reference)

        # Zero duplicate executions across the crash: four unique
        # simulations, four runs fleet-wide (replays were cache or
        # in-flight coalesce hits on the surviving shards).
        assert _simulations_run(client) == len(cells)

        if chaos:
            stats = [proxy.stats() for proxy in proxies]
            assert all(s["latency"] > 0 for s in stats)
            assert sum(s["refuse"] for s in stats) == len(proxies)
    finally:
        if coordinator is not None and coordinator.poll() is None:
            coordinator.send_signal(signal.SIGTERM)
            try:
                coordinator.wait(timeout=30)
            except subprocess.TimeoutExpired:
                coordinator.kill()
                coordinator.wait(timeout=10)
        for proxy in proxies:
            proxy.stop()
        cluster.stop()

    # Satellite: a stopped cluster leaves nothing behind — no port
    # files, no per-shard scratch dirs.
    assert cluster.leftover_artifacts() == []


def test_local_cluster_stop_removes_artifacts(tmp_path):
    cluster = LocalCluster(shards=2, workdir=tmp_path / "cluster")
    with cluster:
        assert len(cluster.leftover_artifacts()) == 4  # 2 ports + 2 tmps
        for worker in cluster.workers:
            assert worker.scratch_dir.is_dir()
    assert cluster.leftover_artifacts() == []
    # The externally supplied workdir itself survives (only owned
    # scratch state is reaped).
    assert (tmp_path / "cluster").is_dir()
