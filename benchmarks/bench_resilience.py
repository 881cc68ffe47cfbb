"""Resilience overhead and chaos convergence of the supervised engine.

Like :mod:`benchmarks.bench_selfperf`, this bench measures the
reproduction itself: what the fault-tolerant supervisor costs on a clean
run (wall-time overhead of supervision vs the raw serial runner), and
what a chaotic run costs to converge — a seeded fault plan kills a
worker and corrupts a freshly written cache entry mid-matrix, and the
bench records the retries, pool respawns and wall time the supervisor
spent absorbing that, while asserting the results still match the clean
run bit for bit.

Scale control: ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_TXNS`` as in
:mod:`benchmarks.common`; CI runs this at a tiny scale as a smoke test.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from benchmarks.common import bench_scale, print_header
from repro.chaos import FaultPlan, FaultSpec, summarize_state
from repro.harness.configs import configuration
from repro.harness.parallel import last_matrix_report, run_matrix_parallel
from repro.harness.runner import run_matrix

#: Small matrix: two apps across every fence mode.
APPS = ("update", "btree")
CONFIG_NAMES = ("B", "SU", "IQ", "WB", "U")


def _configs():
    return [configuration(name) for name in CONFIG_NAMES]


def test_resilience_supervision_overhead(benchmark):
    """Supervised engine vs raw serial runner on a clean, fault-free run."""
    scale = bench_scale()
    configs = _configs()

    def run():
        start = time.perf_counter()
        serial = run_matrix(list(APPS), configs, scale)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        supervised = run_matrix_parallel(list(APPS), configs, scale,
                                         max_workers=1, cache=False)
        supervised_s = time.perf_counter() - start
        return serial, supervised, serial_s, supervised_s

    serial, supervised, serial_s, supervised_s = benchmark.pedantic(
        run, rounds=1, iterations=1)

    for app in APPS:
        for config in configs:
            assert (serial[app][config.name].cycles
                    == supervised[app][config.name].cycles)

    overhead = (supervised_s / serial_s - 1.0) * 100 if serial_s else 0.0
    report = last_matrix_report()
    benchmark.extra_info["serial_seconds"] = round(serial_s, 3)
    benchmark.extra_info["supervised_seconds"] = round(supervised_s, 3)
    benchmark.extra_info["supervision_overhead_pct"] = round(overhead, 1)
    benchmark.extra_info["retries"] = report.total_retries

    print_header("Resilience: supervision overhead on a clean run")
    print("  raw serial runner : %.3f s" % serial_s)
    print("  supervised engine : %.3f s  (%+.1f%%)"
          % (supervised_s, overhead))
    assert report.all_succeeded and report.total_retries == 0


def test_resilience_chaos_convergence(benchmark):
    """Wall-time and retry cost of converging through injected faults."""
    scale = bench_scale()
    configs = _configs()
    tmp = tempfile.mkdtemp(prefix="repro-chaos-bench-")
    try:
        def run():
            start = time.perf_counter()
            clean = run_matrix_parallel(list(APPS), configs, scale,
                                        max_workers=2, cache=False)
            clean_s = time.perf_counter() - start

            plan = FaultPlan(
                faults=[
                    FaultSpec(point="worker", action="kill",
                              match="%s/*" % APPS[0]),
                    FaultSpec(point="store", action="truncate",
                              match="result:*"),
                ],
                state_dir=tmp + "/chaos-state",
                seed=2021)
            with plan.installed():
                start = time.perf_counter()
                chaotic = run_matrix_parallel(
                    list(APPS), configs, scale, max_workers=2,
                    cache=True, cache_dir=tmp + "/cache",
                    retries=3, backoff=0.05)
                chaos_s = time.perf_counter() - start
            return clean, chaotic, clean_s, chaos_s, summarize_state(plan)

        clean, chaotic, clean_s, chaos_s, spent = benchmark.pedantic(
            run, rounds=1, iterations=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Chaos must not change a single measured number.
    for app in APPS:
        for config in configs:
            assert (clean[app][config.name].cycles
                    == chaotic[app][config.name].cycles)

    report = last_matrix_report()
    slowdown = chaos_s / clean_s if clean_s else float("inf")
    benchmark.extra_info["clean_seconds"] = round(clean_s, 3)
    benchmark.extra_info["chaos_seconds"] = round(chaos_s, 3)
    benchmark.extra_info["chaos_slowdown"] = round(slowdown, 2)
    benchmark.extra_info["retries"] = report.total_retries
    benchmark.extra_info["pool_respawns"] = report.pool_respawns
    benchmark.extra_info["faults_fired"] = sum(spent.values())

    print_header("Resilience: convergence under injected chaos")
    print("  clean parallel run : %.3f s" % clean_s)
    print("  chaotic run        : %.3f s  (%.2fx)" % (chaos_s, slowdown))
    print("  faults fired       : %s" % spent)
    print(report.describe())
    assert report.all_succeeded
    assert sum(spent.values()) >= 2, "the fault plan never fired"
    assert report.pool_respawns >= 1


def _run_cluster_matrix(scale, config_names, cache_dir, proxy_plan=None):
    """One clustered matrix run; returns (wall seconds, digests)."""
    from repro.chaos.netproxy import ThreadedFaultProxy
    from repro.cluster.coordinator import ThreadedCoordinator
    from repro.service import ServiceClient, ThreadedServer

    servers = [ThreadedServer(max_workers=1, cache_dir=cache_dir)
               for _ in range(2)]
    for server in servers:
        server.start()
    proxies = []
    addresses = [("127.0.0.1", server.port) for server in servers]
    if proxy_plan is not None:
        for host, port in addresses:
            proxy = ThreadedFaultProxy(upstream_host=host,
                                       upstream_port=port, plan=proxy_plan)
            proxy.start()
            proxies.append(proxy)
        addresses = [("127.0.0.1", proxy.port) for proxy in proxies]
    try:
        with ThreadedCoordinator(shards=addresses,
                                 probe_interval_s=1.0) as coordinator:
            client = ServiceClient(port=coordinator.port, client_id="bench")
            start = time.perf_counter()
            statuses = client.submit_matrix(list(APPS), list(config_names),
                                            scale.ops_per_txn, scale.txns,
                                            seed=scale.seed)
            finals = client.wait_all(statuses, timeout=600, via_events=True)
            elapsed = time.perf_counter() - start
            assert all(status["state"] == "done" for status in finals)
            digests = [client.result(status["id"])["digest"]
                       for status in statuses]
        return elapsed, digests
    finally:
        for proxy in proxies:
            proxy.stop()
        for server in servers:
            server.stop()


def test_resilience_cluster_degraded_link(benchmark):
    """Clustered matrix throughput over clean vs latency-degraded links.

    Every coordinator->shard connection through the fault proxy pays a
    seeded ~20-40ms tax; the bench reports the end-to-end slowdown and
    asserts the degraded run's digests still match a clean clustered
    run bit for bit.
    """
    from repro.chaos.netproxy import NetFaultPlan, NetFaultSpec

    scale = bench_scale()
    config_names = ("B", "WB")
    plan = NetFaultPlan(
        faults=[NetFaultSpec(action="latency", times=-1, delay_s=0.02,
                             jitter_s=0.02)],
        seed=2021)
    tmp = tempfile.mkdtemp(prefix="repro-cluster-bench-")
    try:
        def run():
            clean_s, clean_digests = _run_cluster_matrix(
                scale, config_names, tmp + "/cache-clean")
            degraded_s, degraded_digests = _run_cluster_matrix(
                scale, config_names, tmp + "/cache-degraded",
                proxy_plan=plan)
            return clean_s, degraded_s, clean_digests, degraded_digests

        clean_s, degraded_s, clean_digests, degraded_digests = \
            benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    assert degraded_digests == clean_digests
    slowdown = degraded_s / clean_s if clean_s else float("inf")
    benchmark.extra_info["clean_seconds"] = round(clean_s, 3)
    benchmark.extra_info["degraded_seconds"] = round(degraded_s, 3)
    benchmark.extra_info["degraded_slowdown"] = round(slowdown, 2)

    print_header("Resilience: cluster matrix over a degraded link")
    print("  clean links    : %.3f s" % clean_s)
    print("  +latency links : %.3f s  (%.2fx)" % (degraded_s, slowdown))
