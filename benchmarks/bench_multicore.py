"""Multi-core simulator throughput: retired kIPS vs core count.

Like :mod:`benchmarks.bench_selfperf` this measures the reproduction
itself rather than the paper's claims: the lockstep N-core driver's
throughput in retired kilo-instructions per second on the contended
lock-protected counter at 1, 2 and 4 cores, and the N=1 overhead of the
lockstep driver against ``OutOfOrderCore.run`` (both step the same loop).  The
numbers land in the BENCH JSON (``benchmark.extra_info``) and the
headline ones in the ``BENCH_multicore.json`` ledger (see
:mod:`benchmarks.ledger`).

Scale control: ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_TXNS`` as in
:mod:`benchmarks.common`; CI runs this at a tiny scale as a smoke test.
"""

from __future__ import annotations

import dataclasses

from benchmarks.common import bench_scale, print_header, simulate
from benchmarks.ledger import timed_rounds
from repro.harness.configs import DEFAULT_PARAMS, configuration
from repro.harness.runner import run_one
from repro.multicore.system import simulate_built
from repro.workloads import base as workload_base
from tests.golden.identity import run_identity

#: Core counts of the scaling sweep.  The contended counter builds at any
#: count up to the modeled maximum; 1/2/4 spans uncontended to saturated.
CORE_COUNTS = (1, 2, 4)

#: Workload/config of the sweep: the lock-protected counter concentrates
#: all cross-core traffic on one volatile lock line — the worst case for
#: the coherence directory — under the paper's WB (ede) configuration.
SWEEP_WORKLOAD = "counter"
SWEEP_CONFIG = "WB"


def _scaled(cores: int):
    return dataclasses.replace(bench_scale(), cores=cores)


def test_multicore_scaling_kips(benchmark, bench_ledger):
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

    def run():
        return {cores: timed_rounds(
                    lambda: simulate_built(built, config, DEFAULT_PARAMS))
                for cores, built in builds.items()}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Multi-core: retired kIPS vs core count (%s/%s)"
                 % (SWEEP_WORKLOAD, SWEEP_CONFIG))
    ledger = {}
    for cores in CORE_COUNTS:
        timing, sim = results[cores]
        kips = sim.stats.retired / timing.best / 1e3
        benchmark.extra_info["kips_%dc" % cores] = round(kips, 1)
        benchmark.extra_info["retired_%dc" % cores] = sim.stats.retired
        benchmark.extra_info["cycles_%dc" % cores] = sim.stats.cycles
        ledger["multicore_kips_%dc" % cores] = round(kips, 1)
        ledger["multicore_%dc_timing" % cores] = timing
        coh = sim.coherence
        print("  %d core%s : %7d retired, %8d cycles, %.3f s  ->  %7.1f kIPS"
              "%s" % (
                  cores, " " if cores == 1 else "s",
                  sim.stats.retired, sim.stats.cycles, timing.best, kips,
                  ""
                  if coh is None else
                  "  (%d inval, %d demote)" % (coh.invalidations,
                                               coh.demotions)))
        assert sim.stats.retired > 0
        assert kips > 0
        assert len(sim.core_stats) == cores
    bench_ledger.record("multicore", **ledger)


def test_multicore_lockstep_overhead(benchmark, bench_ledger):
    """N=1 through the lockstep driver vs ``OutOfOrderCore.run``.

    Both run the same pipeline loop, and the golden corpus pins their
    results equal; this measures what stepping it one cycle at a time
    under the driver's clock costs in wall time (the overhead the runner
    avoids by only routing ``cores > 1`` builds through the driver).
    """
    config = configuration(SWEEP_CONFIG)
    built = workload_base.build(SWEEP_WORKLOAD, config.fence_mode, _scaled(1))

    def run():
        classic_timing, classic_stats = timed_rounds(
            lambda: simulate(built, config))
        lockstep_timing, sim = timed_rounds(
            lambda: simulate_built(built, config, DEFAULT_PARAMS))
        assert sim.stats.cycles == classic_stats.cycles
        assert sim.stats.retired == classic_stats.retired
        return classic_timing, lockstep_timing, classic_stats.retired

    classic_timing, lockstep_timing, retired = benchmark.pedantic(
        run, rounds=1, iterations=1)
    classic_s, lockstep_s = classic_timing.best, lockstep_timing.best

    overhead = lockstep_s / classic_s if classic_s else float("inf")
    benchmark.extra_info["classic_seconds"] = round(classic_s, 4)
    benchmark.extra_info["lockstep_seconds"] = round(lockstep_s, 4)
    benchmark.extra_info["lockstep_overhead"] = round(overhead, 2)
    bench_ledger.record("multicore", lockstep_overhead=round(overhead, 2),
                        classic_timing=classic_timing,
                        lockstep_timing=lockstep_timing)

    print_header("Multi-core: lockstep-driver overhead at N=1")
    print("  retired        : %d instructions" % retired)
    print("  core.run()     : %.3f s" % classic_s)
    print("  lockstep drive : %.3f s  (%.2fx)" % (lockstep_s, overhead))


def test_multicore_repeat_run_bit_identity(benchmark, bench_ledger):
    """The determinism contract at bench scale: repeated 2-core runs of
    all three contended workloads are digest-identical (and fast, since
    the second run exercises exactly the same schedule)."""
    config = configuration(SWEEP_CONFIG)
    scale = _scaled(2)
    workloads = ("hazard", "mpsc", "counter")

    def run():
        digests = {}
        for workload in workloads:
            first = run_identity(run_one(workload, config, scale))
            second = run_identity(run_one(workload, config, scale))
            digests[workload] = (first, second)
        return digests

    digests = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Multi-core: repeat-run bit identity at 2 cores (%s)"
                 % SWEEP_CONFIG)
    for workload, (first, second) in digests.items():
        print("  %-8s : %s  %s" % (
            workload, first[0],
            "== repeat" if first == second else "!= repeat"))
        assert first == second, workload
    bench_ledger.record("multicore", bit_identical_2c=all(
        first == second for first, second in digests.values()))
