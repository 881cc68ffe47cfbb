"""Fence-autotuner benchmark: fences eliminated and speedup per workload.

Runs the proof-guided autotuner (:mod:`repro.analysis.autotune`) over
the framework workloads under the safe configurations, measuring

* how many ordering instructions (full fences, ``DMB ST``, waits) the
  search removes, starting from both the shipped emission and the
  overfenced ``+cons`` emission,
* the simulated speedup of the optimized variant (cycles baseline /
  cycles optimized), and
* that the optimized variant's recovered-state digest is bit-identical
  to the unoptimized serial run — the autotuner's safety contract, and
* the search's own wall time per target (``autotune_timing``, three
  timed rounds of the whole :func:`autotune_workload` call, simulation
  and crash sweep included) with its ``trials`` count.

Scale control: ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_TXNS`` as in
:mod:`benchmarks.common`; CI runs this at a tiny scale as a smoke test.
Per-target numbers go to the ``BENCH_autotune.json`` ledger (see
:mod:`benchmarks.ledger`).
"""

from __future__ import annotations

import dataclasses
import functools

from benchmarks.common import bench_scale, print_header
from benchmarks.ledger import timed_rounds
from repro.analysis.autotune import OPTIMIZED, PROVEN_MINIMAL, autotune_workload

#: Workload x config coverage: the representative subset the bench runs
#: (update exercises the crash sweep; btree is the largest trace).
BENCH_TARGETS = (
    ("update", "B", False),
    ("update", "B", True),
    ("update", "IQ", True),
    ("btree", "IQ", False),
    ("btree", "WB", True),
)


def test_autotune_wins(benchmark, bench_ledger):
    """Autotune the bench targets; record eliminations and speedups."""
    scale = bench_scale()

    def run():
        return [
            (workload, config, cons) + timed_rounds(functools.partial(
                autotune_workload, workload, config, scale=scale,
                conservative=cons))
            for workload, config, cons in BENCH_TARGETS
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Fence autotuner: eliminations, speedups and search time")
    print("  %-8s %-4s %-6s %-14s %8s %8s %9s %7s %6s %8s"
          % ("workload", "cfg", "mode", "status", "before", "after",
             "speedup", "digest", "trials", "wall s"))
    for workload, config, cons, timing, report in results:
        target = "%s/%s%s" % (workload, config, "+cons" if cons else "")
        before = sum(report.ordering_before.values())
        after = sum(report.ordering_after.values())
        speedup = report.speedup or 1.0
        print("  %-8s %-4s %-6s %-14s %8d %8d %8.3fx %7s %6d %8.3f"
              % (workload, config, "+cons" if cons else "base",
                 report.status, before, after, speedup,
                 "match" if report.digest_match else str(report.digest_match),
                 len(report.trials), timing.median))

        # The safety contract: whatever was emitted is proven safe and
        # bit-identical to the serial baseline.
        assert report.status in (OPTIMIZED, PROVEN_MINIMAL), report.reason
        if report.status == OPTIMIZED:
            assert after < before or report.key_map
            assert report.digest_match is True
            if report.crash_sweep.get("supported"):
                assert report.crash_sweep["consistent"] is True

        benchmark.extra_info[target] = {
            "status": report.status,
            "ordering_before": before,
            "ordering_after": after,
            "fences_removed": before - after,
            "keys_before": report.keys_before,
            "keys_after": report.keys_after,
            "baseline_simulated_kips": round(report.baseline.kips, 1)
            if report.baseline else None,
            "optimized_simulated_kips": round(report.optimized.kips, 1)
            if report.optimized else None,
            "speedup": round(speedup, 4),
            "digest_match": report.digest_match,
            "trials": len(report.trials),
            "autotune_timing": dataclasses.asdict(timing)}
        bench_ledger.record("autotune", **{target: benchmark.extra_info[target]})

    # The conservative update build must show a real elimination win.
    cons_update = next(r for w, c, k, _t, r in results
                       if w == "update" and c == "B" and k)
    assert cons_update.fences_removed > 0
    assert (cons_update.speedup or 0.0) > 1.0
