"""Service-layer throughput: cold vs warm jobs/sec through the HTTP API.

Measures the end-to-end cost of serving the experiment matrix through
:mod:`repro.service` — HTTP round-trips, admission, batching, supervised
execution — against the same persistent result cache the batch engines
use.  The *cold* pass simulates every job; the *warm* pass restarts the
server on the same cache directory and must answer every submission
instantly from disk (disposition ``cached``).  The gap between the two is
the service overhead floor: a warm job costs three HTTP requests
(submit, one status read that finds it done, result) plus a pickle
load, no simulation.  A cold job is also followed on its event stream,
so its time is the job's own rather than the phase of a status poll.

The bench runs :data:`ROUNDS` rounds, each a cold and a warm pass on a
fresh server and cache directory.  The best round gives the headline
rates, and ``cold_timing``/``warm_timing`` beside them keep the spread
of the pass times (:class:`benchmarks.ledger.Timing`).

Scale control: ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_TXNS`` as in
:mod:`benchmarks.common`; CI runs this at a tiny scale as a smoke test.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time

from benchmarks.common import bench_scale, print_header
from benchmarks.ledger import Timing
from repro.service import ServiceClient, ThreadedServer

#: Small enough to run cold in every round, wide enough to exercise
#: trace-sharing groups (three fence modes across two workloads).
WORKLOADS = ("update", "swap")
CONFIGS = ("B", "WB", "U")

#: Rounds, each on a fresh server and cache directory.
ROUNDS = 3


def _serve_matrix(cache_dir, scale, expect_cached=False):
    """Run the matrix through a fresh server; return its seconds."""
    with ThreadedServer(cache_dir=cache_dir) as server:
        client = ServiceClient(port=server.port, client_id="bench")
        start = time.perf_counter()
        statuses = client.submit_matrix(list(WORKLOADS), list(CONFIGS),
                                        scale.ops_per_txn, scale.txns)
        finals = client.wait_all(statuses, via_events=True)
        elapsed = time.perf_counter() - start
        assert all(status["state"] == "done" for status in finals)
        if expect_cached:
            assert all(status["disposition"] == "cached"
                       for status in statuses)
        return elapsed


def _round(scale):
    """A cold pass, then a warm pass on a restarted server over the same
    fresh cache directory; returns (cold seconds, warm seconds)."""
    cache_dir = tempfile.mkdtemp(prefix="bench-service-")
    try:
        return (_serve_matrix(cache_dir, scale),
                _serve_matrix(cache_dir, scale, expect_cached=True))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def test_service_cold_vs_warm_jobs_per_sec(benchmark):
    scale = bench_scale()
    jobs = len(WORKLOADS) * len(CONFIGS)

    def run():
        rounds = [_round(scale) for _ in range(ROUNDS)]
        return tuple(Timing.of(times) for times in zip(*rounds))

    cold, warm = benchmark.pedantic(run, rounds=1, iterations=1)
    cold_s, warm_s = cold.best, warm.best
    cold_rate = jobs / cold_s
    warm_rate = jobs / warm_s
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["cold_seconds"] = round(cold_s, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_s, 4)
    benchmark.extra_info["cold_jobs_per_sec"] = round(cold_rate, 2)
    benchmark.extra_info["warm_jobs_per_sec"] = round(warm_rate, 2)
    benchmark.extra_info["warm_speedup"] = round(cold_s / warm_s, 2)
    benchmark.extra_info["cold_timing"] = dataclasses.asdict(cold)
    benchmark.extra_info["warm_timing"] = dataclasses.asdict(warm)

    print_header("Service throughput: cold vs warm (%d jobs, %dx%d), "
                 "best of %d rounds"
                 % (jobs, scale.ops_per_txn, scale.txns, ROUNDS))
    print("  cold : %.3f s  ->  %.2f jobs/s (simulated; median %.3f s, "
          "q1-q3 %.3f-%.3f s)"
          % (cold_s, cold_rate, cold.median, cold.q1, cold.q3))
    print("  warm : %.3f s  ->  %.2f jobs/s (served from cache; median "
          "%.3f s, q1-q3 %.3f-%.3f s)"
          % (warm_s, warm_rate, warm.median, warm.q1, warm.q3))
    print("  warm speedup: %.1fx" % (cold_s / warm_s))
    assert warm_rate > 0 and cold_rate > 0
    # A warm job never simulates; it must not be slower than cold.
    assert warm_s <= cold_s * 1.5
