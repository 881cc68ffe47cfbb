"""Cluster throughput: cold/warm jobs/sec at 1, 2 and 4 shards.

The scaling claim of the cluster layer: cold experiment matrices —
every job a real simulation — complete at near-linear jobs/sec as shard
worker *processes* are added, because the coordinator routes disjoint
key ranges to independent processes with no shared interpreter lock.
The bench runs the same matrix through a local cluster at 1, 2 and 4
shards, then a warm pass against the running cluster (answered from the
shard registries/cache without simulating).  Each shard count runs
:data:`ROUNDS` rounds, each on a fresh cluster and cache directory so
every cold pass is cold; the best round gives the headline rate and the
``<name>_timing`` metric beside it keeps the spread of the pass times.
Every pass waits with ``wait(via_events=True)``, as the e2e
``service-jobs`` clients do: a job still running is followed on its
event stream, so its time is the job's own rather than the phase of a
status poll, and a finished one (every job of a warm pass) is returned
from its first status read.  Every served digest is verified
bit-identical to the serial :func:`repro.harness.runner.run_matrix`
reference.

Speedup gates are applied only when the host actually has the cores:
on an N-core machine a 4-shard cluster cannot beat 1 shard (the shard
processes time-slice one core), so the gate for K shards requires
``os.cpu_count() >= K``.  Digest equality is asserted unconditionally —
correctness does not depend on the core count.

Scale control: ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_TXNS`` as in
:mod:`benchmarks.common`; CI runs this at a tiny scale as a smoke test.
Headline numbers go to the ``BENCH_cluster.json`` ledger (see
:mod:`benchmarks.ledger`).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from benchmarks.common import bench_scale, print_header
from benchmarks.ledger import Timing
from repro.cluster.coordinator import ThreadedCoordinator
from repro.cluster.local import LocalCluster
from repro.harness import CONFIGURATIONS, run_matrix
from repro.harness.digest import run_digest
from repro.service import ServiceClient
from tests.golden.identity import run_identity

#: The measured matrix: every Table III configuration over two
#: workloads — 10 cold simulations per pass, grouped by fence mode on
#: each owning shard.
WORKLOADS = ("update", "swap")
CONFIGS = ("B", "SU", "IQ", "WB", "U")

#: Shard counts swept by the scaling bench.
SHARD_COUNTS = (1, 2, 4)

#: Rounds per shard count, each on a fresh cluster.
ROUNDS = 3


def _reference_digests(scale):
    """Serial run_matrix results: the bit-identity baseline."""
    configs = [c for c in CONFIGURATIONS if c.name in CONFIGS]
    serial = run_matrix(list(WORKLOADS), configs, scale)
    return {(workload, config.name):
            run_identity(serial[workload][config.name])
            for workload in WORKLOADS for config in configs}


def _served(client, job_id):
    """A served result, compared as the reference is; its JSON digest
    must be the ``run_digest`` of the pickled result."""
    run = client.result_pickle(job_id)
    assert client.result(job_id)["digest"] == run_digest(run)
    return run_identity(run)


def _run_pass(client, scale):
    """Submit the matrix, wait it out (on the event stream of each job
    still running); return (seconds, digests)."""
    start = time.perf_counter()
    statuses = client.submit_matrix(list(WORKLOADS), list(CONFIGS),
                                    scale.ops_per_txn, scale.txns,
                                    seed=scale.seed)
    finals = client.wait_all(statuses, timeout=1200, via_events=True)
    elapsed = time.perf_counter() - start
    assert all(status["state"] == "done" for status in finals)
    digests = {}
    index = 0
    for workload in WORKLOADS:
        for config in CONFIGS:
            digests[(workload, config)] = _served(client,
                                                  statuses[index]["id"])
            index += 1
    return elapsed, digests


def _cluster_pass(n_shards, scale, reference):
    """One cold and one warm matrix pass through an n-shard cluster."""
    workdir = tempfile.mkdtemp(prefix="bench-cluster-%d-" % n_shards)
    try:
        with LocalCluster(shards=n_shards, workers_per_shard=1,
                          workdir=workdir) as cluster:
            with ThreadedCoordinator(shards=cluster.addresses,
                                     probe_interval_s=1.0) as coordinator:
                client = ServiceClient(port=coordinator.port,
                                       client_id="bench")
                cold_s, cold_digests = _run_pass(client, scale)
                assert cold_digests == reference, \
                    "served digests diverged from serial run_matrix " \
                    "at %d shards" % n_shards
                warm_s, warm_digests = _run_pass(client, scale)
                assert warm_digests == reference
        return cold_s, warm_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_cluster_jobs_per_sec_scaling(benchmark, bench_ledger):
    scale = bench_scale()
    jobs = len(WORKLOADS) * len(CONFIGS)
    reference = _reference_digests(scale)
    cores = os.cpu_count() or 1

    def run():
        results = {}
        for n_shards in SHARD_COUNTS:
            passes = [_cluster_pass(n_shards, scale, reference)
                      for _ in range(ROUNDS)]
            results[n_shards] = tuple(Timing.of(times)
                                      for times in zip(*passes))
        return results

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    # Best rounds: the headline numbers and the gates below.
    results = {n_shards: (cold.best, warm.best)
               for n_shards, (cold, warm) in timings.items()}

    base_cold = results[1][0]
    print_header("Cluster scaling: %d cold jobs (%dx%d), %d cores, "
                 "best of %d rounds"
                 % (jobs, scale.ops_per_txn, scale.txns, cores, ROUNDS))
    for n_shards in SHARD_COUNTS:
        cold_s, warm_s = results[n_shards]
        cold_timing, warm_timing = timings[n_shards]
        cold_rate = jobs / cold_s
        warm_rate = jobs / warm_s
        speedup = base_cold / cold_s
        cold_name = "cold_jobs_per_sec_%d" % n_shards
        warm_name = "warm_events_jobs_per_sec_%d" % n_shards
        metrics = {cold_name: round(cold_rate, 2),
                   warm_name: round(warm_rate, 2),
                   "cold_speedup_%d" % n_shards: round(speedup, 2)}
        benchmark.extra_info.update(metrics)
        benchmark.extra_info["cold_s_%d" % n_shards] = round(cold_s, 3)
        bench_ledger.record("cluster", **metrics, **{
            cold_name + "_timing": cold_timing,
            warm_name + "_timing": warm_timing})
        print("  %d shard%s : cold %7.3f s (%6.2f jobs/s, %.2fx, median "
              "%.3f s)   warm %7.3f s (%6.2f jobs/s, median %.3f s)"
              % (n_shards, "s" if n_shards > 1 else " ", cold_s, cold_rate,
                 speedup, cold_timing.median, warm_s, warm_rate,
                 warm_timing.median))
    benchmark.extra_info["cpu_count"] = cores
    benchmark.extra_info["jobs"] = jobs
    bench_ledger.record("cluster", jobs=jobs)

    # Digest equality was asserted inside every pass.  The scaling
    # gates need real cores to mean anything (K time-sliced shard
    # processes on fewer than K cores cannot beat one shard) and real
    # per-job work: at smoke scale the fixed per-group costs — pool
    # spawn, HTTP round trips — dwarf the microseconds of simulation, so
    # the curve is honestly flat no matter how many cores there are.
    at_scale = scale.ops_per_txn * scale.txns >= 100
    if not at_scale:
        print("  (smoke scale %dx%d: speedup gates skipped — fixed "
              "overheads dominate)" % (scale.ops_per_txn, scale.txns))
    elif cores < 2:
        print("  (1-core host: speedup gates skipped)")
    if at_scale and cores >= 2:
        speedup_2 = base_cold / results[2][0]
        assert speedup_2 >= 1.7, (
            "2-shard cold speedup below the 1.7x gate on a %d-core host: "
            "%.2fx" % (cores, speedup_2))
        if cores >= 4:
            speedup_4 = base_cold / results[4][0]
            assert speedup_4 >= 3.0, (
                "4-shard cold speedup below the 3x gate on a %d-core "
                "host: %.2fx" % (cores, speedup_4))
        else:
            print("  (%d-core host: 4-shard speedup gate skipped)" % cores)
    # Warm passes never simulate; they must not be slower than cold.
    for n_shards in SHARD_COUNTS:
        cold_s, warm_s = results[n_shards]
        assert warm_s <= cold_s * 1.5
