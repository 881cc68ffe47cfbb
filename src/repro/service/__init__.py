"""Simulation-as-a-service: serve EDE experiments over HTTP.

A long-lived server for concurrent simulation, analysis and autotune
requests: content-addressed jobs (:mod:`~repro.service.jobs`) that a
cached result completes without simulating, a bounded client-fair
queue (:mod:`~repro.service.queue`), a single-flight, trace-sharing
scheduler over the supervised pool (:mod:`~repro.service.scheduler`),
the HTTP server (:mod:`~repro.service.server`) and its one HTTP/1.1
codec (:mod:`~repro.service.http`), and the client and CLI
(:mod:`~repro.service.client`, ``python -m repro.service``).  Results
served for a simulation job are bit-identical to
:func:`repro.harness.runner.run_matrix` serial output for the same
spec; ``tests/service`` proves it end to end.
"""

from repro.service.client import ServiceClient, parse_metrics
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    job_id_for,
)
from repro.service.metrics import ServiceMetrics
from repro.service.queue import BoundedJobQueue, QueueFullError
from repro.service.scheduler import DrainingError, Scheduler
from repro.service.server import ServiceServer, ThreadedServer

__all__ = [
    "BoundedJobQueue",
    "DrainingError",
    "Job",
    "JobSpec",
    "JobState",
    "QueueFullError",
    "Scheduler",
    "ServiceClient",
    "ServiceMetrics",
    "ServiceServer",
    "ThreadedServer",
    "job_id_for",
    "parse_metrics",
]
