"""Every way of running a simulation reproduces the committed corpus.

``test_corpus.py`` checks the direct :func:`~repro.harness.runner.run_one`
path.  Here each ``matrix/*`` case and each 2- and 4-core
``multicore/*`` case of ``corpus.json`` must come out with its committed
:func:`~repro.harness.digest.run_digest` through every other path:

- :func:`~repro.harness.parallel.run_matrix_parallel` on a 2-worker pool;
- a result-cache hit;
- an in-process :class:`~repro.service.ThreadedServer` job, both its
  JSON ``digest`` and the digest of its pickled result;
- a job through a :class:`~repro.cluster.coordinator.ThreadedCoordinator`
  in front of a 1-shard :class:`~repro.cluster.local.LocalCluster`;
- a pooled matrix run that survives a killed worker.

The paths add checks, not digests: the corpus is only read.  The 1-core
``multicore/*`` cases equal ``matrix/*`` (``test_corpus.py``).
"""

import time

from repro.chaos import FaultPlan, FaultSpec, summarize_state
from repro.cluster.coordinator import ThreadedCoordinator
from repro.cluster.local import LocalCluster
from repro.harness import CONFIGURATIONS, last_matrix_report
from repro.harness.digest import run_digest
from repro.harness.parallel import run_matrix_parallel
from repro.service import JobSpec, ServiceClient, ThreadedServer
from repro.service.queue import BoundedJobQueue
from repro.workloads import Scale
from repro.workloads import base as workload_base
from tests.golden import record

GOLDEN = record.load_corpus()

#: (workloads, scale, case id pattern) of each matrix the paths run.
MATRICES = [
    (workload_base.workload_names(), record.SCALE, "matrix/%s/%s")] + [
    (record.MULTICORE_WORKLOADS,
     Scale(record.SCALE.ops_per_txn, record.SCALE.txns, cores=cores),
     "multicore/%%s/%%s/%dc" % cores)
    for cores in (2, 4)]

CASES = sorted(pattern % (workload, config.name)
               for workloads, _, pattern in MATRICES
               for workload in workloads for config in CONFIGURATIONS)

#: Room for every case at once, so no submission waits out a 429.
QUEUE_DEPTH = 2 * len(CASES)


def assert_corpus(digests):
    assert sorted(digests) == CASES
    drift = {case: (digest, GOLDEN[case])
             for case, digest in digests.items() if digest != GOLDEN[case]}
    assert not drift, "digest != golden: %s" % drift


def matrix_digests(**kwargs):
    """Digests of every case through ``run_matrix_parallel(**kwargs)``,
    plus the :class:`~repro.harness.supervisor.MatrixReport` of each
    matrix."""
    digests, reports = {}, []
    for workloads, scale, pattern in MATRICES:
        results = run_matrix_parallel(workloads, CONFIGURATIONS, scale,
                                      **kwargs)
        reports.append(last_matrix_report())
        for workload, row in results.items():
            for name, run in row.items():
                digests[pattern % (workload, name)] = run_digest(run)
    return digests, reports


def job_specs():
    """Case id -> the simulate job that reproduces it."""
    return {pattern % (workload, config.name): JobSpec(
                kind="simulate", workload=workload, config=config.name,
                ops_per_txn=scale.ops_per_txn, txns=scale.txns,
                seed=scale.seed, cores=scale.cores)
            for workloads, scale, pattern in MATRICES
            for workload in workloads for config in CONFIGURATIONS}


def served_digests(port, pickled=False):
    """Submit every case's job and wait for all of them; return the JSON
    ``digest`` of each result, and with ``pickled`` also the
    ``run_digest`` of each pickled result."""
    client = ServiceClient(port=port, client_id="paths")
    specs = job_specs()
    statuses = [client.submit_retrying(spec) for spec in specs.values()]
    finals = client.wait_all(statuses, timeout=600)
    assert [final["state"] for final in finals] == ["done"] * len(finals)
    ids = dict(zip(specs, (status["id"] for status in statuses)))
    digests = {case: client.result(job)["digest"]
               for case, job in ids.items()}
    if not pickled:
        return digests
    return digests, {case: run_digest(client.result_pickle(job))
                     for case, job in ids.items()}


def test_cases_are_in_the_corpus():
    assert len(CASES) == 80
    assert set(CASES) <= set(GOLDEN)


def test_process_pool():
    digests, reports = matrix_digests(max_workers=2, cache=False)
    assert_corpus(digests)
    assert not any(report.degraded_to_serial for report in reports)


def test_result_cache_hit(tmp_path):
    kwargs = dict(max_workers=1, cache=True, cache_dir=tmp_path)
    matrix_digests(**kwargs)
    hits, reports = matrix_digests(**kwargs)
    assert_corpus(hits)
    assert sum(report.resumed_from_cache for report in reports) == len(CASES)


def test_service_job(tmp_path):
    with ThreadedServer(max_workers=1, cache_dir=tmp_path,
                        queue=BoundedJobQueue(QUEUE_DEPTH)) as server:
        served, pickled = served_digests(server.port, pickled=True)
    assert_corpus(served)
    assert_corpus(pickled)


def test_cluster_job(tmp_path):
    with LocalCluster(shards=1, queue_depth=QUEUE_DEPTH,
                      workdir=tmp_path / "cluster",
                      cache_dir=tmp_path / "cache") as cluster:
        with ThreadedCoordinator(shards=cluster.addresses,
                                 probe_interval_s=0.2,
                                 rate=1e6, burst=10 ** 6) as coordinator:
            client = ServiceClient(port=coordinator.port)
            deadline = time.monotonic() + 60
            while not all(shard["routable"]
                          for shard in client.healthz()["shards"].values()):
                assert time.monotonic() < deadline, "shard never routable"
                time.sleep(0.05)
            assert_corpus(served_digests(coordinator.port))


def test_survives_worker_kill(tmp_path):
    plan = FaultPlan(
        faults=[FaultSpec(point="worker", action="kill", match="update/*")],
        state_dir=str(tmp_path / "chaos-state"), seed=2021)
    with plan.installed():
        digests, reports = matrix_digests(max_workers=2, cache=False,
                                          retries=3, backoff=0.01)
    assert summarize_state(plan)["worker[update/*]:kill"] == 1
    assert reports[0].pool_respawns >= 1
    assert_corpus(digests)

