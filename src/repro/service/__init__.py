"""Simulation-as-a-service: serve EDE experiments over HTTP.

Every entry point before this package — benchmarks, ``python -m
repro.analysis``, :func:`~repro.harness.parallel.run_matrix_parallel` —
is a one-shot local process.  This package turns the harness into a
long-lived server that accepts concurrent requests for simulations and
static analyses and serves them efficiently:

* **content-addressed jobs** (:mod:`repro.service.jobs`) reuse the
  result-cache key scheme, so a job whose result is already on disk
  completes without simulating;
* a **bounded queue** (:mod:`repro.service.queue`) applies admission
  control — a full queue rejects with a retry-after hint instead of
  accepting unbounded work — and round-robins between clients so one
  heavy client cannot starve the rest;
* the **scheduler** (:mod:`repro.service.scheduler`) coalesces duplicate
  in-flight requests (single-flight), groups compatible jobs into the
  same (workload, fence mode) trace-sharing batches the parallel engine
  uses, and executes them through the fault-tolerant
  :func:`~repro.harness.supervisor.run_supervised` pool;
* the **server** (:mod:`repro.service.server`) exposes an asyncio
  HTTP/JSON API — ``POST /jobs``, ``GET /jobs/<id>``, ``GET
  /jobs/<id>/result``, an SSE progress stream, ``GET /metrics``
  (Prometheus text) and ``GET /healthz`` — binding port 0 by default so
  tests are hermetic;
* the **client** (:mod:`repro.service.client`) and the ``python -m
  repro.service`` CLI (serve / submit / wait / status / metrics) drive
  it from scripts and CI.

Results served for a simulation job are bit-identical to
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
