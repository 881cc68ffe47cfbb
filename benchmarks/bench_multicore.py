"""Multi-core simulator throughput: retired kIPS vs core count.

Like :mod:`benchmarks.bench_selfperf` this measures the reproduction
itself rather than the paper's claims: the lockstep N-core driver's
throughput in retired kilo-instructions per second on the contended
lock-protected counter at 1, 2 and 4 cores, and the N=1 overhead of the
lockstep driver against ``OutOfOrderCore.run`` (both step the same loop).  The numbers land
in the BENCH JSON (``benchmark.extra_info``) so the multi-core
performance trajectory is tracked across commits.

Scale control: ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_TXNS`` as in
:mod:`benchmarks.common`; CI runs this at a tiny scale as a smoke test.

``REPRO_BENCH_RECORD=1`` additionally appends this run's headline numbers
to the committed ``BENCH_multicore.json`` ledger at the repository root
(off by default so routine pytest invocations do not dirty the tree).
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import os
import time
from pathlib import Path

from benchmarks.common import bench_scale, print_header
from repro.harness.configs import DEFAULT_PARAMS, configuration
from repro.harness.runner import run_one, warm_hierarchy
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.multicore.system import simulate_built
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.replay import meta_for
from repro.service.jobs import result_digest
from repro.workloads import base as workload_base

#: Core counts of the scaling sweep.  The contended counter builds at any
#: count up to the modeled maximum; 1/2/4 spans uncontended to saturated.
CORE_COUNTS = (1, 2, 4)

#: Workload/config of the sweep: the lock-protected counter concentrates
#: all cross-core traffic on one volatile lock line — the worst case for
#: the coherence directory — under the paper's WB (ede) configuration.
SWEEP_WORKLOAD = "counter"
SWEEP_CONFIG = "WB"

#: Committed performance ledger (repo root).  See :func:`_flush_ledger`.
BENCH_LEDGER = Path(__file__).resolve().parent.parent / "BENCH_multicore.json"

#: Headline numbers of this pytest session, keyed by metric name; flushed
#: to :data:`BENCH_LEDGER` at interpreter exit when ``REPRO_BENCH_RECORD=1``.
_SESSION: dict = {}


def _record(**metrics) -> None:
    """Stash headline numbers for the end-of-session ledger entry."""
    _SESSION.update(metrics)


def _flush_ledger() -> None:
    """Append this session's entry to ``BENCH_multicore.json``.

    Only with ``REPRO_BENCH_RECORD=1`` (an unregistered bench-only knob,
    like ``REPRO_BENCH_OPS``): the ledger is a committed file and routine
    test runs must not modify it.
    """
    if not _SESSION or os.environ.get("REPRO_BENCH_RECORD", "0") != "1":
        return
    scale = bench_scale()
    entry = {
        "date": time.strftime("%Y-%m-%d"),
        "scale": {"ops_per_txn": scale.ops_per_txn, "txns": scale.txns},
    }
    entry.update(_SESSION)
    try:
        ledger = json.loads(BENCH_LEDGER.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    ledger.setdefault("entries", []).append(entry)
    BENCH_LEDGER.write_text(
        json.dumps(ledger, indent=2) + "\n", encoding="utf-8")


atexit.register(_flush_ledger)


def _scaled(cores: int):
    return dataclasses.replace(bench_scale(), cores=cores)


def test_multicore_scaling_kips(benchmark):
    """Lockstep-driver throughput on the contended counter at 1/2/4 cores.

    Each core count is a different machine (and a different amount of
    work: the counter runs ``txns`` transactions *per core*), so kIPS is
    reported per count rather than compared across counts; the assertion
    is only that every configuration sustains forward progress.
    """
    config = configuration(SWEEP_CONFIG)
    builds = {
        cores: workload_base.build(SWEEP_WORKLOAD, config.fence_mode,
                                   _scaled(cores))
        for cores in CORE_COUNTS
    }

    results = {}

    def run():
        for cores, built in builds.items():
            timings = []
            sim = None
            for _ in range(3):
                start = time.perf_counter()
                sim = simulate_built(built, config, DEFAULT_PARAMS)
                timings.append(time.perf_counter() - start)
            results[cores] = (sim, min(timings))
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Multi-core: retired kIPS vs core count (%s/%s)"
                 % (SWEEP_WORKLOAD, SWEEP_CONFIG))
    ledger = {}
    for cores in CORE_COUNTS:
        sim, best = results[cores]
        kips = sim.stats.retired / best / 1e3
        benchmark.extra_info["kips_%dc" % cores] = round(kips, 1)
        benchmark.extra_info["retired_%dc" % cores] = sim.stats.retired
        benchmark.extra_info["cycles_%dc" % cores] = sim.stats.cycles
        ledger["multicore_kips_%dc" % cores] = round(kips, 1)
        coh = sim.coherence
        print("  %d core%s : %7d retired, %8d cycles, %.3f s  ->  %7.1f kIPS"
              "%s" % (
                  cores, " " if cores == 1 else "s",
                  sim.stats.retired, sim.stats.cycles, best, kips,
                  ""
                  if coh is None else
                  "  (%d inval, %d demote)" % (coh.invalidations,
                                               coh.demotions)))
        assert sim.stats.retired > 0
        assert kips > 0
        assert len(sim.core_stats) == cores
    _record(**ledger)


def test_multicore_lockstep_overhead(benchmark):
    """N=1 through the lockstep driver vs ``OutOfOrderCore.run``.

    Both run the same pipeline loop, and the golden corpus pins their
    results equal; this measures what stepping it one cycle at a time
    under the driver's clock costs in wall time (the overhead the runner
    avoids by only routing ``cores > 1`` builds through the driver).
    """
    config = configuration(SWEEP_CONFIG)
    built = workload_base.build(SWEEP_WORKLOAD, config.fence_mode, _scaled(1))

    def classic():
        controller = MemoryController(
            address_map=DEFAULT_PARAMS.address_map,
            dram_params=DEFAULT_PARAMS.dram,
            nvm_params=DEFAULT_PARAMS.nvm,
        )
        hierarchy = CacheHierarchy(controller, DEFAULT_PARAMS.hierarchy)
        warm_hierarchy(hierarchy, built)
        core = OutOfOrderCore(built.trace, hierarchy, config.policy,
                              DEFAULT_PARAMS.core, replay=meta_for(built))
        return core.run()

    def best_of(fn, rounds=3):
        timings = []
        result = None
        for _ in range(rounds):
            start = time.perf_counter()
            result = fn()
            timings.append(time.perf_counter() - start)
        return min(timings), result

    def run():
        classic_s, classic_stats = best_of(classic)
        lockstep_s, sim = best_of(
            lambda: simulate_built(built, config, DEFAULT_PARAMS))
        assert sim.stats.cycles == classic_stats.cycles
        assert sim.stats.retired == classic_stats.retired
        return classic_s, lockstep_s, classic_stats.retired

    classic_s, lockstep_s, retired = benchmark.pedantic(
        run, rounds=1, iterations=1)

    overhead = lockstep_s / classic_s if classic_s else float("inf")
    benchmark.extra_info["classic_seconds"] = round(classic_s, 4)
    benchmark.extra_info["lockstep_seconds"] = round(lockstep_s, 4)
    benchmark.extra_info["lockstep_overhead"] = round(overhead, 2)
    _record(lockstep_overhead=round(overhead, 2))

    print_header("Multi-core: lockstep-driver overhead at N=1")
    print("  retired        : %d instructions" % retired)
    print("  core.run()     : %.3f s" % classic_s)
    print("  lockstep drive : %.3f s  (%.2fx)" % (lockstep_s, overhead))


def test_multicore_repeat_run_bit_identity(benchmark):
    """The determinism contract at bench scale: repeated 2-core runs of
    all three contended workloads are digest-identical (and fast, since
    the second run exercises exactly the same schedule)."""
    config = configuration(SWEEP_CONFIG)
    scale = _scaled(2)
    workloads = ("hazard", "mpsc", "counter")

    def run():
        digests = {}
        for workload in workloads:
            first = result_digest(run_one(workload, config, scale))
            second = result_digest(run_one(workload, config, scale))
            digests[workload] = (first, second)
        return digests

    digests = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Multi-core: repeat-run bit identity at 2 cores (%s)"
                 % SWEEP_CONFIG)
    for workload, (first, second) in digests.items():
        print("  %-8s : %s  %s" % (
            workload, first[:16],
            "== repeat" if first == second else "!= repeat"))
        assert first == second, workload
    _record(bit_identical_2c=all(a == b for a, b in digests.values()))
