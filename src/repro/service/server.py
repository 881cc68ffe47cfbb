"""Asyncio HTTP/JSON front end for the simulation service.

A deliberately small HTTP/1.1 server — stdlib only, keep-alive
connections that serve one request after another, compact JSON bodies —
built on the shared plumbing in :mod:`repro.service.http`.  Routes:

* ``POST /jobs`` — submit a :class:`~repro.service.jobs.JobSpec`
  (``{"spec": {...}, "client": "...", "priority": 0}``); ``202`` for
  newly queued work, ``200`` when the submission coalesced onto an
  in-flight duplicate or was served from the result cache, ``429`` +
  ``Retry-After`` under backpressure, ``503`` while draining for
  shutdown, ``400`` for invalid specs.
* ``GET /jobs/<id>`` — job status JSON.
* ``GET /jobs/<id>/result`` — the result: JSON summary + content digest
  for simulate jobs (``?format=pickle`` streams the full pickled
  :class:`~repro.harness.runner.RunResult`), the report dict for
  analysis jobs; ``409`` while the job is still in flight.
* ``GET /jobs/<id>/events`` — Server-Sent Events progress stream
  (replays history, then live until the job is terminal), one chunk
  per event; the last chunk ends it and the connection serves the next
  request.
* ``GET /metrics`` — Prometheus text exposition.
* ``GET /healthz`` — liveness, queue/in-flight depth and drain state
  (the cluster coordinator's health probes read the detail).

The default bind is ``127.0.0.1:0``, an ephemeral port
(:attr:`ServiceServer.port`, ``--port-file`` in the CLI).
:class:`ThreadedServer` runs the service on a background thread.
:meth:`ServiceServer.drain_and_stop` (SIGTERM in the CLI) refuses new
submissions with ``503`` while queries keep working and every admitted
job finishes and is persisted, so a drained shard loses no work.
"""

from __future__ import annotations

import asyncio
import json
import pickle
from typing import Dict, Optional

from urllib.parse import parse_qs, urlsplit

from repro.service.http import (
    LAST_CHUNK,
    MAX_BODY_BYTES,
    BaseHttpServer,
    ThreadedHttpServer,
    parse_event_id,
    render_chunk,
    render_sse,
    render_stream_head,
)
from repro.service.jobs import Job, JobState, KIND_SIMULATE, parse_submit
from repro.service.queue import QueueFullError
from repro.service.scheduler import DrainingError, Scheduler

__all__ = ["ServiceServer", "ThreadedServer", "MAX_BODY_BYTES"]

#: Seconds a draining server may spend finishing admitted work.
DEFAULT_DRAIN_TIMEOUT_S = 60.0

class ServiceServer(BaseHttpServer):
    """One scheduler plus the asyncio HTTP listener in front of it."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 scheduler: Optional[Scheduler] = None, **scheduler_kwargs):
        super().__init__(host=host, port=port)
        self.scheduler = (scheduler if scheduler is not None
                          else Scheduler(**scheduler_kwargs))
        self.metrics = self.scheduler.metrics

    # --- lifecycle ----------------------------------------------------------

    async def on_start(self) -> None:
        self.scheduler.start()

    async def on_stop(self) -> None:
        await self.scheduler.stop()

    async def drain_and_stop(self,
                             timeout: float = DEFAULT_DRAIN_TIMEOUT_S
                             ) -> bool:
        """Refuse new work, finish admitted jobs, then stop.

        Returns True when the drain completed inside ``timeout`` seconds
        (``0`` waits without a bound); False when the window closed with
        work still in flight (completed groups are persisted either
        way).
        """
        drained = True
        try:
            await asyncio.wait_for(self.scheduler.drain(),
                                   timeout if timeout > 0 else None)
        except asyncio.TimeoutError:
            drained = False
        await self.stop()
        return drained

    # --- routing ------------------------------------------------------------

    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)

        if path == "/healthz" and method == "GET":
            self._respond(writer, 200, self.health())
        elif path == "/metrics" and method == "GET":
            self._respond(writer, 200, self.metrics.render(),
                          content_type="text/plain; version=0.0.4")
        elif path == "/jobs" and method == "POST":
            self._submit(headers, body, writer)
        elif path.startswith("/jobs/"):
            await self._job_route(method, path, query, headers, writer)
        else:
            self._respond(writer, 404, {"error": "no route %s %s"
                                        % (method, path)})

    def health(self) -> dict:
        """The ``/healthz`` payload; coordinator probes parse this."""
        scheduler = self.scheduler
        return {
            "status": "draining" if scheduler.draining else "ok",
            "queue_depth": len(scheduler.queue),
            "inflight": int(scheduler.metrics.inflight.value()),
            "jobs_tracked": len(scheduler.jobs),
            "paused": scheduler.paused,
            "draining": scheduler.draining,
        }

    def _submit(self, headers: Dict[str, str], body: bytes,
                writer: asyncio.StreamWriter) -> None:
        try:
            spec, client, priority = parse_submit(headers, body)
        except ValueError as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        try:
            job, disposition = self.scheduler.submit(spec, client=client,
                                                     priority=priority)
        except DrainingError as exc:
            self._respond_retry_after(writer, 503, str(exc),
                                      exc.retry_after_s, draining=True)
            return
        except QueueFullError as exc:
            self._respond_retry_after(writer, 429, str(exc),
                                      exc.retry_after_s)
            return
        status = job.to_status()
        status["disposition"] = disposition
        self._respond(writer, 202 if disposition == "created" else 200,
                      status)

    async def _job_route(self, method: str, path: str, query: Dict,
                         headers: Dict[str, str],
                         writer: asyncio.StreamWriter) -> None:
        parts = path.split("/")  # ["", "jobs", <id>, (tail)]
        job_id = parts[2] if len(parts) > 2 else ""
        tail = parts[3] if len(parts) > 3 else ""
        job = self.scheduler.get(job_id)
        if job is None:
            self._respond(writer, 404, {"error": "unknown job %r" % job_id})
            return
        if method != "GET" or tail not in ("", "result", "events"):
            self._respond(writer, 405, {"error": "no route %s %s"
                                        % (method, path)})
            return
        if tail == "":
            self._respond(writer, 200, job.to_status())
        elif tail == "result":
            self._result(job, query, writer)
        else:
            await self._stream_events(job, headers, writer)

    def _result(self, job: Job, query: Dict,
                writer: asyncio.StreamWriter) -> None:
        if job.state == JobState.FAILED:
            self._respond(writer, 500, {"id": job.id, "state": job.state,
                                        "error": job.error})
            return
        if job.state != JobState.DONE:
            self._respond(writer, 409, {"id": job.id, "state": job.state,
                                        "error": "job not finished"})
            return
        fmt = (query.get("format") or ["json"])[0]
        if job.spec.kind != KIND_SIMULATE:
            self._respond(writer, 200, {"id": job.id, "report": job.result})
            return
        if fmt == "pickle":
            self._respond(writer, 200,
                          pickle.dumps(job.result,
                                       protocol=pickle.HIGHEST_PROTOCOL),
                          content_type="application/octet-stream")
            return
        result = job.result
        self._respond(writer, 200, {
            "id": job.id,
            "workload": result.workload,
            "config": result.config.name,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "ipc": result.ipc,
            "verdict": result.consistency.verdict,
            "violations": len(result.consistency.violations),
            "nvm_media_writes": result.nvm_media_writes,
            "from_cache": job.from_cache,
            "digest": job.digest,
        })

    async def _stream_events(self, job: Job, headers: Dict[str, str],
                             writer: asyncio.StreamWriter) -> None:
        """SSE progress stream with resumable event IDs.

        Every event carries ``id: <index>``; a client reconnecting
        after a dropped stream sends ``Last-Event-ID`` (standard SSE
        resumption) and the replay starts *after* that event instead of
        from the beginning.  Each event is one chunk; once the job is
        terminal the last chunk ends the stream, and the connection goes
        on serving requests.
        """
        writer.write(render_stream_head("text/event-stream",
                                        {"Cache-Control": "no-cache"}))
        last_seen = parse_event_id(headers.get("last-event-id", ""))
        index = 0 if last_seen is None else last_seen + 1
        while True:
            while index < len(job.events):
                event = job.events[index]
                writer.write(render_chunk(render_sse(
                    index, event["event"], json.dumps(event))))
                index += 1
            if job.state in JobState.TERMINAL:
                writer.write(LAST_CHUNK)
                return
            await writer.drain()
            await job.next_change()


class ThreadedServer(ThreadedHttpServer):
    """Run a :class:`ServiceServer` on a background thread (tests,
    benchmarks, in-process embedding)."""

    thread_name = "repro-service"

    def _build(self) -> ServiceServer:
        return ServiceServer(**self._kwargs)

    @property
    def scheduler(self) -> Scheduler:
        assert self.server is not None
        return self.server.scheduler
