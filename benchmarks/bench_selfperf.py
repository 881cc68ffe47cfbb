"""Simulator self-performance: throughput and experiment-engine timings.

Unlike the other benches, this one measures the reproduction itself rather
than the paper's claims: simulator throughput in retired kilo-instructions
per second (kIPS), trace-build throughput in built kilo-instructions per
second (the compiled interpreter vs the reference interpreter, and
the workload build path), the replay row prepass time, the update and
swap build times, one paper-matrix pass with the cyclic-GC time and
collections inside it, serial-vs-parallel full-matrix wall time, the
persistent result cache's cold/warm behaviour, and the crash sweep's
cost per crash point.  The numbers land in the BENCH JSON
(``benchmark.extra_info``) and the headline ones in the
``BENCH_selfperf.json`` ledger (see :mod:`benchmarks.ledger`).

Scale control: ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_TXNS`` as in
:mod:`benchmarks.common`; CI runs this at a tiny scale as a smoke test.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time

from benchmarks.common import bench_scale, print_header, simulate
from benchmarks.ledger import Timing, timed_rounds
from repro.consistency.crash_sim import CrashInjector
from repro.harness.configs import configuration
from repro.harness.experiments import APPLICATIONS
from repro.harness.parallel import resolve_workers, run_matrix_parallel
from repro.harness.runner import run_matrix, run_one
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.pipeline.replay import build_rows
from repro.workloads import base as workload_base

#: Matrix used by the serial-vs-parallel and cache measurements — small
#: enough to run twice in one bench, large enough to dominate overheads.
MATRIX_APPS = ("btree", "update")
MATRIX_CONFIGS = ("B", "SU", "IQ", "WB", "U")


class GcClock:
    """A ``gc.callbacks`` hook: seconds spent in cyclic collections and
    the collections started, per generation."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self.collections[info["generation"]] += 1
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


#: Timed paper-matrix passes; odd, so each median is one pass's value.
MATRIX_PASSES = 5


def _paper_matrix_pass(scale):
    """Fig. 9 as the e2e ``paper-matrix`` workload runs it: every app
    under every configuration, one trace per fence mode, no caches."""
    for app in APPLICATIONS:
        built = {}
        for name in MATRIX_CONFIGS:
            config = configuration(name)
            trace = built.get(config.fence_mode)
            if trace is None:
                trace = built[config.fence_mode] = workload_base.build(
                    app, config.fence_mode, scale)
            run_one(app, config, scale, built=trace)


def test_selfperf_paper_matrix_pass(benchmark, bench_ledger):
    """Wall time of one paper-matrix pass, and the cyclic GC's share."""
    scale = bench_scale()
    _paper_matrix_pass(scale)  # warm the per-shape memos
    clocks = []

    def one_pass():
        clock = GcClock()
        gc.collect()
        gc.callbacks.append(clock)
        try:
            start = time.perf_counter()
            _paper_matrix_pass(scale)
            elapsed = time.perf_counter() - start
        finally:
            gc.callbacks.remove(clock)
        clocks.append(clock)
        return elapsed

    timing = benchmark.pedantic(
        lambda: Timing.of([one_pass() for _ in range(MATRIX_PASSES)]),
        rounds=1, iterations=1)
    gc_s = statistics.median(clock.seconds for clock in clocks)
    collections = {"gen%d" % gen: statistics.median(
        clock.collections[gen] for clock in clocks) for gen in range(3)}
    benchmark.extra_info["matrix_pass_s"] = round(timing.best, 4)
    benchmark.extra_info["matrix_pass_gc_s"] = round(gc_s, 4)
    benchmark.extra_info["matrix_pass_collections"] = collections
    bench_ledger.record("selfperf", matrix_pass_s=round(timing.best, 4),
                        matrix_pass_timing=timing,
                        matrix_pass_gc_s=round(gc_s, 4),
                        matrix_pass_collections=collections)

    print_header("Self-perf: one paper-matrix pass (%d apps x %d configs)"
                 % (len(APPLICATIONS), len(MATRIX_CONFIGS)))
    print("  median of %d   : %.3f s (best %.3f s)"
          % (timing.n, timing.median, timing.best))
    print("  cyclic GC      : %.3f s, collections %s" % (gc_s, collections))


def test_selfperf_single_run_kips(benchmark, bench_ledger):
    """Simulator hot-loop throughput on one representative run (btree/WB)."""
    scale = bench_scale()
    config = configuration("WB")
    built = workload_base.build("btree", config.fence_mode, scale)

    timing, stats = benchmark.pedantic(
        timed_rounds, args=(lambda: simulate(built, config),),
        rounds=1, iterations=1)
    kips = stats.retired / timing.best / 1e3
    benchmark.extra_info["retired_instructions"] = stats.retired
    benchmark.extra_info["sim_seconds_best"] = round(timing.best, 4)
    benchmark.extra_info["kips"] = round(kips, 1)
    bench_ledger.record("selfperf", retired_kips=round(kips, 1),
                        retired_kips_timing=timing,
                        retired_instructions=stats.retired)

    print_header("Self-perf: single-run simulator throughput (btree/WB)")
    print("  trace length : %d instructions" % len(built.trace))
    print("  retired      : %d" % stats.retired)
    print("  best of %d    : %.3f s  ->  %.1f kIPS"
          % (timing.n, timing.best, kips))
    assert stats.retired == len(built.trace)
    assert kips > 0


#: Representative hand-written kernel for interpreter throughput: the mix
#: (ALU, load, store, stp, persist, compare, branch) of the paper's
#: undo-logging loops.
_BUILD_KERNEL = """
    mov x0, #4096
    mov x1, #0
    mov x5, #0
loop:
    str x1, [x0]
    ldr x2, [x0]
    add x5, x5, x2
    stp x1, x2, [x0, #8]
    dc cvap, x0
    add x1, x1, #1
    cmp x1, #%d
    b.ne loop
    halt
"""


def _time_kernel(kernel):
    """Reference and compiled interpreter timings on ``kernel``, and its
    trace length; the two traces must be bit-identical."""
    iterations = max(500, bench_scale().total_ops * 4)
    program = assemble(kernel % iterations)
    max_steps = 16 * iterations + 16
    ref, ref_trace = timed_rounds(
        lambda: Machine().run_reference(program, max_steps=max_steps))
    compiled, run_trace = timed_rounds(
        lambda: Machine().run(program, max_steps=max_steps))
    assert run_trace == ref_trace
    return ref, compiled, len(ref_trace)


def _print_kernel(title, ref, compiled, trace_len):
    """Print a kernel's timings; return its speedup and compiled kIPS."""
    speedup = ref.best / compiled.best if compiled.best else float("inf")
    print_header(title)
    print("  kernel trace      : %d instructions" % trace_len)
    print("  reference interp  : %.3f s  ->  %.1f kIPS"
          % (ref.best, trace_len / ref.best / 1e3))
    print("  compiled interp   : %.3f s  ->  %.1f kIPS  (%.2fx)"
          % (compiled.best, trace_len / compiled.best / 1e3, speedup))
    return speedup, trace_len / compiled.best / 1e3


def test_selfperf_trace_build_kips(benchmark, bench_ledger):
    """Trace-build throughput: compiled vs reference interpreter, plus
    the workload (framework) build path, in built kIPS, and the replay
    row prepass over the built trace."""
    scale = bench_scale()

    def run():
        build, built = timed_rounds(
            lambda: workload_base.build("btree", "ede", scale))
        rows, _ = timed_rounds(lambda: build_rows(built.trace))
        return _time_kernel(_BUILD_KERNEL) + (build, len(built.trace), rows)

    ref, compiled, trace_len, build, wl_trace_len, rows = benchmark.pedantic(
        run, rounds=1, iterations=1)

    speedup, run_kips = _print_kernel(
        "Self-perf: trace-build throughput (compiled interpreter)",
        ref, compiled, trace_len)
    build_kips = wl_trace_len / build.best / 1e3
    print("  workload build    : %.3f s  ->  %.1f kIPS (btree/ede, framework)"
          % (build.best, build_kips))
    print("  replay rows       : %.2f ms (btree/ede prepass)"
          % (rows.best * 1e3))
    benchmark.extra_info["interp_trace_len"] = trace_len
    benchmark.extra_info["interp_reference_kips"] = round(
        trace_len / ref.best / 1e3, 1)
    benchmark.extra_info["interp_compiled_kips"] = round(run_kips, 1)
    benchmark.extra_info["interp_speedup"] = round(speedup, 2)
    benchmark.extra_info["workload_build_kips"] = round(build_kips, 1)
    benchmark.extra_info["workload_trace_len"] = wl_trace_len
    benchmark.extra_info["replay_rows_ms"] = round(rows.best * 1e3, 2)
    bench_ledger.record("selfperf", trace_build_kips=round(run_kips, 1),
                        trace_build_timing=compiled,
                        interp_speedup=round(speedup, 2),
                        trace_build_reference_timing=ref,
                        workload_build_kips=round(build_kips, 1),
                        workload_build_timing=build,
                        replay_rows_ms=round(rows.best * 1e3, 2),
                        replay_rows_timing=rows)
    assert speedup >= 2.0, (
        "compiled interpreter below the 2x trace-build target: %.2fx"
        % speedup)


#: ALU-weighted loop.  Chunked codegen wins most on long straight-line
#: runs of ALU work (memory handlers dominate the chunk otherwise), so this
#: mirrors the checksum/compare portions of the workloads rather than the
#: store-heavy logging portions.
_ALU_KERNEL = """
    mov x0, #4096
    mov x1, #0
    mov x5, #0
loop:
    add x2, x1, #3
    eor x3, x2, x1
    lsl x4, x2, #2
    orr x5, x5, x3
    and x6, x4, #255
    sub x7, x6, x1
    add x5, x5, x7
    str x5, [x0]
    add x1, x1, #1
    cmp x1, #%d
    b.ne loop
    halt
"""


def test_selfperf_alu_kernel_speedup(benchmark, bench_ledger):
    """Compiled interpreter vs the reference on the ALU-weighted kernel,
    bit-identical and at least 2.6x (the CI perf gate)."""
    ref, compiled, trace_len = benchmark.pedantic(
        _time_kernel, args=(_ALU_KERNEL,), rounds=1, iterations=1)

    speedup, run_kips = _print_kernel(
        "Self-perf: ALU-weighted kernel (compiled interpreter)",
        ref, compiled, trace_len)
    benchmark.extra_info["alu_trace_len"] = trace_len
    benchmark.extra_info["alu_reference_kips"] = round(
        trace_len / ref.best / 1e3, 1)
    benchmark.extra_info["alu_kips"] = round(run_kips, 1)
    benchmark.extra_info["alu_speedup"] = round(speedup, 2)
    bench_ledger.record("selfperf", alu_kips=round(run_kips, 1),
                        alu_timing=compiled, alu_speedup=round(speedup, 2),
                        alu_reference_timing=ref)
    # 2.6x is the two retired gates composed: threaded code >= 2x the
    # reference and fusion >= 1.3x threaded code.
    assert speedup >= 2.6, (
        "compiled interpreter below the 2.6x gate on the ALU kernel: %.2fx"
        % speedup)


def test_selfperf_matrix_serial_vs_parallel(benchmark):
    """Wall time of a small matrix: serial runner vs parallel engine."""
    scale = bench_scale()
    apps = list(MATRIX_APPS)
    configs = [configuration(name) for name in MATRIX_CONFIGS]
    workers = resolve_workers(None)

    def run():
        serial_t, serial = timed_rounds(
            lambda: run_matrix(apps, configs, scale), rounds=1)
        parallel_t, parallel = timed_rounds(lambda: run_matrix_parallel(
            apps, configs, scale, max_workers=workers, cache=False), rounds=1)
        return serial, parallel, serial_t.best, parallel_t.best

    serial, parallel, serial_s, parallel_s = benchmark.pedantic(
        run, rounds=1, iterations=1)

    for app in apps:
        for config in configs:
            assert (serial[app][config.name].cycles
                    == parallel[app][config.name].cycles)

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["matrix_runs"] = len(apps) * len(configs)
    benchmark.extra_info["serial_seconds"] = round(serial_s, 3)
    benchmark.extra_info["parallel_seconds"] = round(parallel_s, 3)
    benchmark.extra_info["parallel_speedup"] = round(speedup, 2)

    print_header("Self-perf: %dx%d matrix wall time, serial vs parallel"
                 % (len(apps), len(configs)))
    print("  workers      : %d" % workers)
    print("  serial       : %.3f s" % serial_s)
    print("  parallel     : %.3f s  (%.2fx)" % (parallel_s, speedup))
    if workers == 1:
        print("  (single-CPU host: parallel path runs in-process; "
              "speedup is expected on multi-core hosts)")


def test_selfperf_result_cache(benchmark):
    """Cold (simulate + store) vs warm (load) full-matrix timings."""
    scale = bench_scale()
    apps = list(MATRIX_APPS)
    configs = [configuration(name) for name in MATRIX_CONFIGS]
    tmp = tempfile.mkdtemp(prefix="repro-cache-bench-")
    try:
        def matrix():
            return run_matrix_parallel(apps, configs, scale, max_workers=1,
                                       cache=True, cache_dir=tmp)

        def run():
            cold_t, cold = timed_rounds(matrix, rounds=1)
            warm_t, warm = timed_rounds(matrix, rounds=1)
            return cold, warm, cold_t.best, warm_t.best

        cold, warm, cold_s, warm_s = benchmark.pedantic(
            run, rounds=1, iterations=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for app in apps:
        for config in configs:
            assert (cold[app][config.name].cycles
                    == warm[app][config.name].cycles)

    speedup = cold_s / warm_s if warm_s else float("inf")
    benchmark.extra_info["cold_seconds"] = round(cold_s, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_s, 3)
    benchmark.extra_info["cache_speedup"] = round(speedup, 2)

    print_header("Self-perf: persistent result cache, cold vs warm")
    print("  cold (simulate + store) : %.3f s" % cold_s)
    print("  warm (cache hits)       : %.3f s  (%.2fx)" % (warm_s, speedup))
    assert speedup > 1.0


def test_selfperf_crash_sweep(benchmark, bench_ledger):
    """Crash-sweep cost per point: full update and swap sweeps under WB."""
    scale = bench_scale()
    config = configuration("WB")
    runs = [run_one(app, config, scale) for app in ("update", "swap")]

    def sweep():
        return [CrashInjector(run.built, run.persist_log).validate_many()
                for run in runs]

    timing, reports = benchmark.pedantic(
        timed_rounds, args=(sweep,), rounds=1, iterations=1)
    points = sum(len(sweep_reports) for sweep_reports in reports)
    us_per_point = timing.best / points * 1e6
    benchmark.extra_info["crash_points"] = points
    benchmark.extra_info["sweep_seconds_best"] = round(timing.best, 4)
    benchmark.extra_info["crash_us_per_point"] = round(us_per_point, 1)
    bench_ledger.record("selfperf", crash_us_per_point=round(us_per_point, 1),
                        crash_sweep_timing=timing, crash_points=points)

    print_header("Self-perf: crash sweep, every point of update+swap x WB")
    print("  crash points : %d" % points)
    print("  best of %d    : %.3f s  ->  %.1f us/point"
          % (timing.n, timing.best, us_per_point))
    assert points == sum(len(run.persist_log) + 1 for run in runs)


def test_selfperf_array_kernel_builds(benchmark, bench_ledger):
    """Build-layer time of the update and swap kernels, whose commits
    record each transaction's write set for recovery validation."""
    scale = bench_scale()

    def run():
        return {app: timed_rounds(
            lambda app=app: workload_base.build(app, "ede", scale), rounds=5)
            for app in ("update", "swap")}

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Self-perf: update and swap trace builds (ede)")
    for app, (timing, built) in timings.items():
        cells = sum(len(txn) for txn in built.committed_writes)
        benchmark.extra_info["%s_build_ms" % app] = round(timing.best * 1e3, 2)
        benchmark.extra_info["%s_committed_cells" % app] = cells
        bench_ledger.record("selfperf",
                            **{"%s_build_ms" % app: round(timing.best * 1e3, 2),
                               "%s_build_timing" % app: timing})
        print("  %-6s : best of %d %.1f ms, median %.1f ms, %d committed cells"
              % (app, timing.n, timing.best * 1e3, timing.median * 1e3, cells))
        assert len(built.committed_writes) == scale.txns
