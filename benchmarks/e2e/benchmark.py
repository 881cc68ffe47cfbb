"""Run one workload of the end-to-end benchmark and print its metrics.

    python -m benchmarks.e2e --workload paper-matrix --seed 2021 \\
        --seconds 25 --trace 0

A run sets the workload up ``setups`` times (``setup_s`` is the median),
then repeats passes until ``--seconds`` have gone by, checks every op's
output against the golden corpus, and prints one ``name value unit`` line
per metric followed by one JSON line.  ``--trace 0`` reports the
end-to-end metrics, their timings scaled to a reference host speed that
a fixed loop reads whenever none of the program's work is in flight
(:class:`HostClock`).  ``--trace 1`` runs every pass twice, untraced and
then with the span recorder installed, and reports the per-layer metrics
of the traced passes; the ratio of the two wall times is the tracing
overhead.  The spans are written to ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.trace import Probe, SpanRecorder, installed

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}

# --- probes -----------------------------------------------------------------


def _observe_build(built, counts):
    counts["workloads.build_instructions"] = len(built.trace)


def _observe_run(run, counts):
    stats = run.stats
    counts.update({
        "pipeline.retired": stats.retired,
        "pipeline.cycles": run.cycles,
        "pipeline.retire_stall_wb_full": stats.retire_stall_wb_full,
        "pipeline.retire_stall_dsb": stats.retire_stall_dsb,
        "pipeline.retire_stall_wait": stats.retire_stall_wait,
        "pipeline.dispatch_stall_rob": stats.dispatch_stall_rob,
        "pipeline.dispatch_stall_iq": stats.dispatch_stall_iq,
        "pipeline.dispatch_stall_lsq": stats.dispatch_stall_lsq,
        "memory.nvm_media_writes": run.nvm_media_writes,
        "memory.nvm_coalesced_writes": run.nvm_coalesced_writes,
    })


def _observe_pipeline(stats, counts):
    counts["pipeline.run_retired"] = stats.retired


def _observe_multicore(sim, counts):
    counts["multicore.retired"] = sim.stats.retired
    if sim.coherence is not None:
        counts["multicore.invalidations"] = sim.coherence.invalidations
        counts["multicore.demotions"] = sim.coherence.demotions


def _observe_crash(reports, counts):
    counts["consistency.crash_points"] = len(reports)
    counts["consistency.unrecoverable"] = sum(
        1 for report in reports if not report.consistent)


def _observe_autotune(report, counts):
    counts["analysis.trials"] = len(report.trials)
    counts["analysis.trials_accepted"] = sum(
        1 for trial in report.trials if trial.accepted)
    counts["analysis.fences_removed"] = report.fences_removed


PROBES = (
    Probe("workloads.build", "repro.workloads.base", "build",
          _observe_build),
    Probe("harness.run_one", "repro.harness.runner", "run_one",
          _observe_run),
    Probe("memory.warm", "repro.harness.runner", "warm_hierarchy"),
    Probe("consistency.check", "repro.harness.runner", "check_run"),
    Probe("pipeline.run", "repro.pipeline.core:OutOfOrderCore", "run",
          _observe_pipeline),
    Probe("multicore.simulate", "repro.multicore.system",
          "simulate_built", _observe_multicore),
    Probe("memory.nvm_drain", "repro.memory.nvm:NvmModel", "drain_all"),
    Probe("consistency.crash", "repro.consistency.crash_sim:CrashInjector",
          "validate_many", _observe_crash),
    Probe("consistency.crash", "repro.consistency.crash_sim",
          "validate_multicore", _observe_crash),
    Probe("analysis.autotune", "repro.analysis.autotune",
          "autotune_workload", _observe_autotune),
    Probe("service.submit", "repro.service.client:ServiceClient",
          "submit_retrying"),
    Probe("service.wait", "repro.service.client:ServiceClient", "wait"),
    Probe("service.result", "repro.service.client:ServiceClient",
          "result"),
)


#: Spans the recorder can see; ``bench.op`` is the benchmark's own span
#: around each op and the root of every other.
SPANS = tuple(dict.fromkeys(probe.span for probe in PROBES)) + ("bench.op",)

#: Spans whose self time is reported beside their inclusive time.
SELF_SPANS = ("harness.run_one", "analysis.autotune", "bench.op")

#: Counts read from returned objects, taken from the first traced pass so
#: that they repeat exactly for a seed.
PASS_COUNTS = (
    "pipeline.retired", "pipeline.cycles", "pipeline.retire_stall_wb_full",
    "pipeline.retire_stall_dsb", "pipeline.retire_stall_wait",
    "pipeline.dispatch_stall_rob", "pipeline.dispatch_stall_iq",
    "pipeline.dispatch_stall_lsq", "multicore.invalidations",
    "multicore.demotions", "memory.nvm_media_writes",
    "memory.nvm_coalesced_writes", "consistency.crash_points",
    "consistency.unrecoverable", "analysis.trials", "analysis.fences_removed",
)

#: Service counters: deltas of the coordinator's /metrics over the timed
#: section, metric name -> Prometheus series.
SERVICE_COUNTERS = {
    "service.simulations_run": "repro_simulations_run_total",
    "service.result_cache_hits": "repro_result_cache_hits_total",
    "service.result_cache_misses": "repro_result_cache_misses_total",
    "service.singleflight_coalesced": "repro_singleflight_coalesced_total",
    "service.jobs_rejected": "repro_jobs_rejected_total",
    "service.groups_executed": "repro_groups_executed_total",
    "cluster.jobs_routed": "repro_cluster_jobs_routed_total",
    "cluster.proxy_errors": "repro_cluster_proxy_errors_total",
    "cluster.reroutes": "repro_cluster_reroutes_total",
}


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for span in SPANS:
        units[span + "_s"] = "s"
        if span in SELF_SPANS:
            units[span + "_self_s"] = "s"
        units[span + "_calls"] = "calls/pass"
    for name in PASS_COUNTS:
        units[name] = "cycles" if "cycles" in name or "stall" in name \
            else "count"
    units.update({
        "workloads.build_kips": "kIPS",
        "pipeline.kips": "kIPS",
        "multicore.kips": "kIPS",
        "consistency.crash_us_per_point": "us",
        "analysis.trials_accepted_ratio": "ratio",
        "service.server_latency_mean_ms": "ms",
    })
    units.update((name, "count") for name in SERVICE_COUNTERS)
    units.update({
        "sim.fig9_wb_geomean": "ratio",
        "sim.fig9_err": "ratio",
        "trace.overhead_ratio": "ratio",
        "trace.coverage": "ratio",
    })
    return units


#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = _per_layer_units()

#: Share of a traced pass's wall time the ``bench.op`` spans must cover.
MIN_COVERAGE = 0.95


def env_problem() -> Optional[str]:
    """Why the environment is unfit to benchmark in, or ``None``.

    Any registered ``REPRO_*`` knob that is set (``REPRO_FUSION=0``,
    ``REPRO_CORES``...) would make the run measure a different program
    than the one the goldens pin.
    """
    from repro.harness.envutil import describe_env

    for knob in describe_env():
        if knob.name in os.environ:
            return ("%s is set in the environment; the benchmark runs only "
                    "with every REPRO_* knob unset" % knob.name)
    return None


# --- host speed ---------------------------------------------------------------

#: CPU seconds :func:`_reference_loop` takes on the host the bounds were
#: set on (a 2-vCPU KVM guest, Python 3.11) when it runs at full speed.
#: Every end-to-end timing is scaled by this over what the loop took
#: around it, so it reads as it would at that speed.  Changing it moves
#: every timing; it is part of the benchmark's definition.
REFERENCE_S = 0.010


def _reference_loop() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


class HostClock:
    """Scales times to the reference speed by the host's speed around them.

    The host runs at 60% to all of its full speed, in phases of seconds
    to over an hour, and the program slows with it.  A reading is the
    seconds the reference loop takes now, in the calling thread's CPU
    time: time the thread waits while another thread or process of the
    program runs is not counted, so work the program leaves running is
    not scaled away.  Read only when none of the program's work is in
    flight.
    """

    def __init__(self) -> None:
        self.readings = [self._read()]

    @staticmethod
    def _read() -> float:
        start = time.thread_time()
        _reference_loop()
        return time.thread_time() - start

    def lap(self) -> float:
        """Read the speed; return the factor that brings a time measured
        since the previous reading to the reference speed."""
        self.readings.append(self._read())
        return 2 * REFERENCE_S / (self.readings[-2] + self.readings[-1])


# --- executing passes ---------------------------------------------------------


@dataclasses.dataclass
class Tally:
    """Outcomes of every op a run attempted."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def add(self, op_id: str, problem: Optional[str]) -> None:
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.problems.append("%s: %s" % (op_id, problem))


@dataclasses.dataclass
class PassTiming:
    """A pass's wall seconds and op latencies, as measured and scaled."""

    wall: float = 0.0
    latencies: List[float] = dataclasses.field(default_factory=list)
    scaled_wall: float = 0.0
    scaled_latencies: List[float] = dataclasses.field(default_factory=list)

    def add(self, seconds: float, latencies: List[float],
            scale: float) -> None:
        self.wall += seconds
        self.latencies.extend(latencies)
        self.scaled_wall += seconds * scale
        self.scaled_latencies.extend(value * scale for value in latencies)


def execute(workload, pass_, corpus, tally, recorder=None, clock=None
            ) -> Tuple[PassTiming, Dict[str, int]]:
    """Run one pass on ``workload.threads`` threads.

    With a ``clock``, the host's speed is read whenever no op is in
    flight: between ops when one thread runs them, else after the pass.
    Returns the pass's timing and the simulated cycles of each op that
    returned a simulation.
    """
    # Ops are popped off the pass, so what an op holds (a built trace
    # shared by the configs of one app) is freed once its last op ran.
    pending = pass_.ops
    pending.reverse()
    lock = threading.Lock()
    cycles: Dict[str, int] = {}
    latencies: List[float] = []
    timing = PassTiming()

    def run_op(op) -> float:
        with recorder.span("bench.op", op.id) if recorder \
                else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = op.call()
                latency = time.perf_counter() - start
                problem = op.verify(result) or corpus.check(
                    workload.name, pass_.seed, op.id, op.digest(result))
            except Exception:  # an op failing must not end the run
                latency = time.perf_counter() - start
                problem = traceback.format_exc(limit=4)
                result = None
        tally.add(op.id, problem)
        if hasattr(result, "cycles"):
            cycles[op.id] = result.cycles
        return latency

    def worker() -> None:
        while True:
            with lock:
                if not pending:
                    return
                op = pending.pop()
            latency = run_op(op)
            with lock:
                latencies.append(latency)

    if workload.threads == 1:
        while pending:
            start = time.perf_counter()
            latency = run_op(pending.pop())
            timing.add(time.perf_counter() - start, [latency],
                       clock.lap() if clock else 1.0)
    else:
        start = time.perf_counter()
        # Daemon threads, and no ops left to take, if the join is cut
        # short (SIGTERM): the clean-up then stops the cluster under the
        # requests in flight, and their retries must not keep the process.
        threads = [threading.Thread(target=worker, name="client%d" % index,
                                    daemon=True)
                   for index in range(workload.threads)]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        except BaseException:
            with lock:
                pending.clear()
            raise
        timing.add(time.perf_counter() - start, latencies,
                   clock.lap() if clock else 1.0)
    return timing, cycles


def _series_total(samples: Dict[str, float], series: str) -> float:
    return sum(value for key, value in samples.items()
               if key.split("{", 1)[0] == series)


def _timings(walls: List[float], latencies: List[List[float]]
             ) -> Dict[str, float]:
    """The end-to-end timings: each a median over passes of what one pass
    measured.

    The median leaves out a pass that the scaling did not bring back to
    the reference speed, where a figure pooled over the run (a rate over
    its whole length, a percentile over all its ops) would take it in.
    """
    return {
        "ops_per_s": statistics.median(
            len(per_pass) / wall for wall, per_pass in zip(walls, latencies)),
        "op_p50_ms": statistics.median(
            statistics.median(per_pass) for per_pass in latencies) * 1e3,
        "op_p95_ms": statistics.median(
            _percentile(per_pass, 95) for per_pass in latencies) * 1e3,
    }


def _percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples.

    The inclusive method never reads past the largest sample, which
    matters for passes of a few ops.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- one run --------------------------------------------------------------------


@dataclasses.dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    notes: List[str]

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in self.metrics.items()},
        })


def _setup(workload, sizes, run_dir) -> Tuple[float, float]:
    """Set the workload up ``sizes.setups`` times.

    One set-up is a fresh interpreter importing the layers the workload
    drives, plus the workload's own start (the service boots its cluster
    until every shard is routable).  The last start is kept for the run.
    Returns the median set-up time scaled to the reference speed, and the
    median as measured.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    command = [sys.executable, "-c", "import " + ", ".join(workload.modules)]
    times = []
    scaled = []
    clock = HostClock()
    for _ in range(sizes.setups):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=str(run_dir), check=True)
        workload.start(sizes, run_dir)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * clock.lap())
    return statistics.median(scaled), statistics.median(times)


def _peak_rss_mb(child_pids) -> float:
    """High-water RSS of this process plus that of its largest child.

    Read when the first pass ends: that is what one pass costs a fresh
    process, whereas later passes add garbage whose collection depends on
    how many passes fit the run.
    """
    largest = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in child_pids:
        try:
            with open("/proc/%d/status" % pid, encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        largest = max(largest, int(line.split()[1]))
        except OSError:
            pass
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + largest) / 1024.0


def _plain_section(workload, first, sizes, seconds, corpus, tally
                   ) -> Tuple[Dict[str, float], str]:
    """Untraced passes until ``seconds`` are up: the end-to-end metrics."""
    passes: List[PassTiming] = []
    clock = HostClock()
    start = time.perf_counter()
    while not passes or time.perf_counter() < start + seconds:
        k = len(passes)
        timing, _ = execute(workload, workload.make_pass(k, first, sizes),
                            corpus, tally, clock=clock)
        passes.append(timing)
        if k == 0:
            rss_mb = _peak_rss_mb(workload.child_pids())
    elapsed = time.perf_counter() - start
    metrics = _timings([t.scaled_wall for t in passes],
                       [t.scaled_latencies for t in passes])
    metrics["peak_rss_mb"] = rss_mb
    unscaled = _timings([t.wall for t in passes],
                        [t.latencies for t in passes])
    note = "%d passes, %d ops in %.3f s; pass seconds: %s" % (
        len(passes), sum(len(t.latencies) for t in passes), elapsed,
        " ".join("%.3f" % t.wall for t in passes))
    note += "\nreference loop %.2f to %.2f ms over %d readings (%.2f ms " \
            "at reference speed); unscaled: %s" % (
                min(clock.readings) * 1e3, max(clock.readings) * 1e3,
                len(clock.readings), REFERENCE_S * 1e3,
                ", ".join("%s %.4g" % item for item in unscaled.items()))
    if len(passes) > 1:
        later = [value for t in passes[1:] for value in t.latencies]
        note += "\npass 0: p50 %.3f ms, p95 %.3f ms; later passes: p50 " \
                "%.3f ms, p99 %.3f ms (unscaled)" % (
                    statistics.median(passes[0].latencies) * 1e3,
                    _percentile(passes[0].latencies, 95) * 1e3,
                    statistics.median(later) * 1e3,
                    _percentile(later, 99) * 1e3)
    return metrics, note


def _traced_section(workload, first, sizes, seconds, corpus, tally, recorder
                    ) -> Dict[str, float]:
    """Each pass untraced, then traced on the same inputs: layer metrics.

    Counts read from returned objects come from the first traced pass, so
    they repeat exactly for a seed; times and rates cover every traced
    pass.
    """
    walls: List[float] = []
    ratios: List[float] = []
    counts: Dict[str, float] = {}
    cycles: Dict[str, int] = {}
    before = workload.metric_samples()
    start = time.perf_counter()
    while not ratios or time.perf_counter() < start + seconds:
        k = len(walls)
        pass_ = workload.make_pass(k, first, sizes)
        plain = None
        if pass_.repeatable:
            plain, _ = execute(workload, pass_, corpus, tally)
            pass_ = workload.make_pass(k, first, sizes)
        with installed(recorder, PROBES):
            traced, pass_cycles = execute(workload, pass_, corpus, tally,
                                          recorder)
        walls.append(traced.wall)
        if plain is not None:
            ratios.append(traced.wall / plain.wall)
        if k == 0:
            counts = dict(recorder.counts)
            cycles = pass_cycles
    after = workload.metric_samples()
    metrics = _layer_metrics(recorder, workload, len(walls), counts, cycles,
                             before, after)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    metrics["trace.coverage"] = recorder.root_seconds() / (
        sum(walls) * workload.threads)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes=None, corpus=None, trace_path: Optional[Path] = None
        ) -> Result:
    """Run one workload; ``sizes`` and ``corpus`` default to the bench's."""
    from benchmarks.e2e import golden, workloads

    sizes = sizes or workloads.BENCH
    corpus = corpus or golden.Corpus.load(sizes.name)
    workload = workloads.WORKLOADS[workload_name]()
    first = workloads.start_seed(seed)
    tally = Tally()
    recorder = SpanRecorder()
    notes: List[str] = []
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="e2e-", dir=str(build_dir)))
    saved_cache_dir = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    try:
        setup_s, unscaled_setup_s = _setup(workload, sizes, run_dir)
        gc.collect()
        if trace:
            metrics = _traced_section(workload, first, sizes, seconds,
                                      corpus, tally, recorder)
        else:
            metrics, note = _plain_section(workload, first, sizes, seconds,
                                           corpus, tally)
            metrics["setup_s"] = setup_s
            notes.append(note)
            notes.append("unscaled setup_s %.4g" % unscaled_setup_s)
    finally:
        workload.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        if saved_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_cache_dir

    problems = list(tally.problems)
    if trace:
        problems.extend(_trace_problems(recorder, workload, metrics))
        if trace_path is not None:
            recorder.dump(trace_path)
            notes.append("spans written to %s" % trace_path)
    notes.extend("FAIL " + problem for problem in problems)
    units = PER_LAYER if trace else END_TO_END
    return Result(correct=not problems, attempted=tally.attempted,
                  failed=tally.failed,
                  metrics={name: metrics[name] for name in units},
                  units=units, notes=notes)


def _layer_metrics(recorder, workload, passes, counts, cycles, before, after
                   ) -> Dict[str, float]:
    totals = recorder.totals()
    self_times = recorder.self_times()
    metrics: Dict[str, float] = {}
    for span in SPANS:
        calls, seconds = totals.get(span, (0, 0.0))
        metrics[span + "_s"] = seconds / calls if calls else 0.0
        if span in SELF_SPANS:
            metrics[span + "_self_s"] = (self_times.get(span, 0.0) / calls
                                         if calls else 0.0)
        metrics[span + "_calls"] = calls / passes
    for name in PASS_COUNTS:
        metrics[name] = counts.get(name, 0)
    all_counts = recorder.counts

    def kips(count: str, span: str) -> float:
        seconds = totals.get(span, (0, 0.0))[1]
        return all_counts.get(count, 0) / seconds / 1e3 if seconds else 0.0

    def delta(series: str) -> float:
        return _series_total(after, series) - _series_total(before, series)

    metrics["workloads.build_kips"] = kips("workloads.build_instructions",
                                           "workloads.build")
    metrics["pipeline.kips"] = kips("pipeline.run_retired", "pipeline.run")
    metrics["multicore.kips"] = kips("multicore.retired",
                                     "multicore.simulate")
    points = all_counts.get("consistency.crash_points", 0)
    metrics["consistency.crash_us_per_point"] = (
        totals["consistency.crash"][1] / points * 1e6 if points else 0.0)
    trials = all_counts.get("analysis.trials", 0)
    metrics["analysis.trials_accepted_ratio"] = (
        all_counts.get("analysis.trials_accepted", 0) / trials
        if trials else 0.0)
    for name, series in SERVICE_COUNTERS.items():
        metrics[name] = delta(series)
    jobs = delta("repro_job_latency_seconds_count")
    metrics["service.server_latency_mean_ms"] = (
        delta("repro_job_latency_seconds_sum") / jobs * 1e3 if jobs else 0.0)
    metrics["sim.fig9_wb_geomean"] = 0.0
    metrics["sim.fig9_err"] = 0.0
    metrics.update(workload.model_metrics(cycles))
    return metrics


def _trace_problems(recorder, workload, metrics) -> List[str]:
    fired = {span.name for span in recorder.spans} - {"bench.op"}
    problems = ["declared span %s never fired" % name
                for name in sorted(workload.spans - fired)]
    problems.extend("span %s fired but %s does not declare it"
                    % (name, workload.name)
                    for name in sorted(fired - workload.spans))
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append("op spans cover %.3f of the traced wall time, "
                        "below %.2f" % (metrics["trace.coverage"],
                                        MIN_COVERAGE))
    return problems


# --- command line ---------------------------------------------------------------


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the EDE reproduction.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print("error: %s holds no repro package to benchmark" % SRC,
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    problem = env_problem()
    if problem is not None:
        print("error: %s" % problem, file=sys.stderr)
        return 2

    trace_path = None
    if args.trace:
        trace_path = ROOT / ".bench_build" / (
            "e2e-trace-%s-seed%d.json" % (args.workload, args.seed))
    # The shards run in sessions of their own, so a SIGTERM that ended
    # this process outright would leave them running; exit through
    # run()'s clean-up instead.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 trace_path=trace_path)
    for name, value in result.metrics.items():
        print("%s %.6g %s" % (name, value, result.units[name]))
    print("fail_ratio %.6g ratio (%d of %d ops)" % (
        result.failed / result.attempted, result.failed, result.attempted))
    for note in result.notes:
        print("# " + note.replace("\n", "\n# "))
    print(result.to_json(), flush=True)
    return 0
