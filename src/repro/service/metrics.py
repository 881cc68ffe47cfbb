"""Service metrics: counters, gauges, latency histograms, Prometheus text.

A serving layer without observability is a black box under load; this
module gives the service the standard trio — monotonic counters,
point-in-time gauges, cumulative histograms — and renders them in the
Prometheus text exposition format for ``GET /metrics``.  Stdlib only:
the implementation is a few dicts, not a client library.

All mutation happens on the event-loop thread (the scheduler marshals
worker-thread completions there first), so the primitives are plain
unsynchronized Python — correct for the service's threading model and
free of lock overhead on the hot submit path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Default latency buckets (seconds): simulations at test scale finish in
#: milliseconds, paper-scale sweeps in minutes.
DEFAULT_BUCKETS = (0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0)

LabelValues = Tuple[Tuple[str, str], ...]


def _labelkey(labels: Dict[str, str]) -> LabelValues:
    return tuple(sorted(labels.items()))


def _render_labels(key: LabelValues, extra: str = "") -> str:
    parts = ['%s="%s"' % (name, value) for name, value in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{%s}" % ",".join(parts)


class Metric:
    """Common naming/help plumbing for all metric types."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text

    def samples(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def render(self) -> List[str]:
        return ["# HELP %s %s" % (self.name, self.help),
                "# TYPE %s %s" % (self.name, self.type_name)] + self.samples()


class _Labelled(Metric):
    """One value per label set."""

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._values: Dict[LabelValues, float] = {}

    def value(self, **labels: str) -> float:
        return self._values.get(_labelkey(labels), 0.0)

    def _add(self, delta: float, **labels: str) -> None:
        key = _labelkey(labels)
        self._values[key] = self._values.get(key, 0.0) + delta

    def samples(self) -> List[str]:
        if not self._values:
            return ["%s 0" % self.name]
        return ["%s%s %g" % (self.name, _render_labels(key), value)
                for key, value in sorted(self._values.items())]


class Counter(_Labelled):
    """Monotonic counter, optionally labelled."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up, got %g" % amount)
        self._add(amount, **labels)

    def total(self) -> float:
        return sum(self._values.values())


class Gauge(_Labelled):
    """Settable point-in-time value."""

    type_name = "gauge"

    add = _Labelled._add

    def set(self, value: float, **labels: str) -> None:
        self._values[_labelkey(labels)] = float(value)


class Histogram(Metric):
    """Cumulative histogram with fixed buckets (Prometheus semantics)."""

    type_name = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def samples(self) -> List[str]:
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            lines.append('%s_bucket{le="%g"} %d'
                         % (self.name, bound, cumulative))
        lines.append('%s_bucket{le="+Inf"} %d' % (self.name, self._count))
        lines.append("%s_sum %g" % (self.name, self._sum))
        lines.append("%s_count %d" % (self.name, self._count))
        return lines


class MetricsRegistry:
    """Orders metrics and renders the full exposition page."""

    def __init__(self):
        self._metrics: "Dict[str, Metric]" = {}

    def register(self, metric: Metric) -> Metric:
        if metric.name in self._metrics:
            raise ValueError("duplicate metric %r" % metric.name)
        self._metrics[metric.name] = metric
        return metric

    def render(self) -> str:
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


class ServiceMetrics:
    """Every signal the simulation service exposes on ``/metrics``.

    The acceptance-critical ones: ``repro_queue_depth``,
    ``repro_cache_hit_ratio``, ``repro_singleflight_coalesced_total``
    and ``repro_jobs_completed_total{outcome=...}``.
    """

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.jobs_submitted = reg(Counter(
            "repro_jobs_submitted_total",
            "Job submissions accepted, by kind."))
        self.jobs_completed = reg(Counter(
            "repro_jobs_completed_total",
            "Jobs reaching a terminal state, by outcome "
            "(done/failed/cached)."))
        self.jobs_rejected = reg(Counter(
            "repro_jobs_rejected_total",
            "Submissions refused by admission control (backpressure)."))
        self.coalesced = reg(Counter(
            "repro_singleflight_coalesced_total",
            "Duplicate submissions coalesced onto an in-flight job."))
        self.cache_hits = reg(Counter(
            "repro_result_cache_hits_total",
            "Jobs answered from the persistent result cache."))
        self.cache_misses = reg(Counter(
            "repro_result_cache_misses_total",
            "Jobs that missed the result cache and were executed."))
        self.simulations_run = reg(Counter(
            "repro_simulations_run_total",
            "Individual (workload, config) simulations executed."))
        self.groups_executed = reg(Counter(
            "repro_groups_executed_total",
            "Trace-sharing batches dispatched to the supervised pool."))
        self.queue_depth = reg(Gauge(
            "repro_queue_depth",
            "Jobs currently admitted and waiting for dispatch."))
        self.inflight = reg(Gauge(
            "repro_inflight_jobs",
            "Jobs currently executing."))
        self.cache_hit_ratio = reg(Gauge(
            "repro_cache_hit_ratio",
            "cache hits / (hits + misses) since start (0 when idle)."))
        self.job_latency = reg(Histogram(
            "repro_job_latency_seconds",
            "Submit-to-terminal latency per job.", buckets))

    def note_outcome(self, outcome: str, latency_s: Optional[float]) -> None:
        self.jobs_completed.inc(outcome=outcome)
        if latency_s is not None:
            self.job_latency.observe(latency_s)

    def render(self) -> str:
        hits = self.cache_hits.total()
        misses = self.cache_misses.total()
        ratio = hits / (hits + misses) if (hits + misses) else 0.0
        self.cache_hit_ratio.set(ratio)
        return self.registry.render()
