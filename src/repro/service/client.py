"""Blocking HTTP client for the simulation service.

A thin ``http.client`` wrapper (stdlib only, one connection per
request, matching the server's ``Connection: close``) used by the CLI,
the CI smoke job, the benchmarks and the end-to-end tests.  Raises
:class:`ServiceError` for every non-2xx response except backpressure,
which gets its own :class:`Backpressure` carrying the server's
retry-after hint so callers can implement honest retry loops.

Hardening against a misbehaving wire (see ``repro.chaos.netproxy``):

* **End-to-end deadlines** — a ``deadline_s`` rides every request as
  an ``X-Deadline`` header carrying the remaining budget in seconds; the
  cluster coordinator bounds all upstream work by it and answers an
  honest ``504`` when it expires.
* **Resumable progress streams** — :meth:`ServiceClient.watch`
  consumes the SSE event stream and *reconnects* with the standard
  ``Last-Event-ID`` header when the stream drops mid-flight, so
  ``wait``/``wait_all`` driven via events survive proxies, resets and
  coordinator restarts instead of raising.
"""

from __future__ import annotations

import http.client
import json
import pickle
import random
import time
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.service.jobs import JobSpec, JobState


class ServiceError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, payload):
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__("HTTP %d: %s" % (status, message or payload))
        self.status = status
        self.payload = payload


class Backpressure(ServiceError):
    """429: the queue is full; retry after ``retry_after_s``."""

    def __init__(self, status: int, payload):
        super().__init__(status, payload)
        self.retry_after_s = float(
            payload.get("retry_after_s", 1.0)
            if isinstance(payload, dict) else 1.0)


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text -> ``{"name{labels}": value}`` (tests, CLI)."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


class ServiceClient:
    """Talk to one service instance at (host, port)."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 client_id: str = "cli", timeout: float = 60.0,
                 deadline_s: Optional[float] = None):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.deadline_s = deadline_s

    # --- low-level ----------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json",
                   "X-Client": self.client_id}
        if self.deadline_s is not None:
            headers["X-Deadline"] = "%g" % self.deadline_s
        return headers

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None, raw: bool = False):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers=self._headers())
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if raw and 200 <= response.status < 300:
            return data
        try:
            decoded = json.loads(data.decode())
        except (ValueError, UnicodeDecodeError):
            decoded = data.decode("latin-1")
        if response.status == 429:
            raise Backpressure(response.status, decoded)
        if not 200 <= response.status < 300:
            raise ServiceError(response.status, decoded)
        return decoded

    # --- job API ------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        return self._request("GET", "/metrics", raw=True).decode()

    def metric_samples(self) -> Dict[str, float]:
        return parse_metrics(self.metrics())

    def submit(self, spec: Union[JobSpec, dict],
               priority: int = 0) -> dict:
        """Submit one spec; return the job status (includes ``id`` and
        ``disposition``).  Raises :class:`Backpressure` when rejected."""
        if isinstance(spec, JobSpec):
            spec = spec.to_dict()
        return self._request("POST", "/jobs", body={
            "spec": spec, "client": self.client_id, "priority": priority})

    def submit_retrying(self, spec: Union[JobSpec, dict],
                        priority: int = 0,
                        give_up_after_s: float = 300.0,
                        max_sleep_s: float = 10.0,
                        jitter: float = 0.25,
                        rng: Optional[random.Random] = None,
                        sleep: Callable[[float], None] = time.sleep) -> dict:
        """Submit, honouring the server's 429 ``Retry-After`` estimate.

        Each backpressure rejection is retried after the *server's*
        retry-after hint — not a fixed client-side schedule — scaled by
        up to ``jitter`` of random spread (so a thundering herd of
        rejected clients does not re-collide on the same instant) and
        capped at ``max_sleep_s``.  Gives up after ``give_up_after_s``
        of total waiting by re-raising the last :class:`Backpressure`.

        The returned status gains two bookkeeping fields:
        ``queue_wait_s`` (total seconds slept waiting for admission)
        and ``queue_full_retries`` (rejections absorbed).  Both are 0
        for a first-try admission.

        ``rng`` and ``sleep`` are injectable for deterministic tests.
        """
        rng = rng if rng is not None else random.Random()
        deadline = time.monotonic() + give_up_after_s
        waited = 0.0
        rejections = 0
        while True:
            try:
                status = self.submit(spec, priority=priority)
                status["queue_wait_s"] = round(waited, 6)
                status["queue_full_retries"] = rejections
                return status
            except Backpressure as exc:
                delay = min(max(0.0, exc.retry_after_s), max_sleep_s)
                delay = min(delay * (1.0 + jitter * rng.random()),
                            max_sleep_s)
                if time.monotonic() + delay > deadline:
                    raise
                sleep(delay)
                waited += delay
                rejections += 1

    def status(self, job_id: str) -> dict:
        return self._request("GET", "/jobs/%s" % job_id)

    def watch(self, job_id: str, timeout: float = 600.0,
              reconnect_delay_s: float = 0.2) -> Iterator[dict]:
        """Yield the job's SSE progress events until it is terminal.

        The server stamps every event with ``id: <index>``; when the
        stream drops mid-flight (proxy reset, truncation, coordinator
        restart, 5xx while a shard re-routes) this reconnects with the
        standard ``Last-Event-ID`` header and resumes *after* the last
        event seen — no duplicates, no raise.  Only a 4xx answer (the
        job genuinely is unknown) or the timeout aborts the watch.
        """
        deadline = time.monotonic() + timeout
        last_id: Optional[int] = None
        while True:
            if time.monotonic() > deadline:
                raise TimeoutError("job %s events still open after %gs"
                                   % (job_id, timeout))
            headers = self._headers()
            if last_id is not None:
                headers["Last-Event-ID"] = str(last_id)
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=self.timeout)
            dropped = False
            try:
                conn.request("GET", "/jobs/%s/events" % job_id,
                             headers=headers)
                response = conn.getresponse()
                if response.status >= 500:
                    dropped = True     # shard mid-reroute; retry
                elif response.status != 200:
                    data = response.read()
                    try:
                        decoded = json.loads(data.decode())
                    except (ValueError, UnicodeDecodeError):
                        decoded = data.decode("latin-1")
                    raise ServiceError(response.status, decoded)
                else:
                    fields: Dict[str, str] = {}
                    for raw_line in response:
                        line = raw_line.decode("utf-8", "replace") \
                            .rstrip("\r\n")
                        if line:
                            name, _, value = line.partition(":")
                            fields[name.strip()] = value.strip()
                            continue
                        if "data" in fields:
                            if "id" in fields:
                                try:
                                    last_id = int(fields["id"])
                                except ValueError:
                                    pass
                            event = json.loads(fields["data"])
                            yield event
                            if event.get("event") in JobState.TERMINAL:
                                return
                        fields = {}
                    # EOF without a terminal event: the stream dropped.
                    dropped = True
            except (ConnectionError, OSError,
                    http.client.HTTPException):
                dropped = True
            finally:
                conn.close()
            if dropped:
                time.sleep(reconnect_delay_s)

    def wait(self, job_id: str, timeout: float = 600.0,
             poll_s: float = 0.05, via_events: bool = False) -> dict:
        """Block until the job is terminal; return its final status.

        ``via_events=True`` follows the SSE stream (with automatic
        ``Last-Event-ID`` reconnects) instead of polling.
        """
        if via_events:
            for _ in self.watch(job_id, timeout=timeout):
                pass
            return self.status(job_id)
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in JobState.TERMINAL:
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    "job %s still %r after %gs"
                    % (job_id, status["state"], timeout))
            time.sleep(poll_s)

    def result(self, job_id: str) -> dict:
        """The JSON result view (summary + digest for simulate jobs)."""
        return self._request("GET", "/jobs/%s/result" % job_id)

    def result_pickle(self, job_id: str):
        """The full unpickled :class:`~repro.harness.runner.RunResult`."""
        data = self._request("GET", "/jobs/%s/result?format=pickle" % job_id,
                             raw=True)
        return pickle.loads(data)

    # --- conveniences -------------------------------------------------------

    def submit_matrix(self, workloads: List[str], config_names: List[str],
                      ops_per_txn: int, txns: int,
                      seed: int = 2021) -> List[dict]:
        """Submit the (workloads x configs) simulate cross-product;
        return one submission status per cell."""
        statuses = []
        for workload in workloads:
            for name in config_names:
                spec = JobSpec(kind="simulate", workload=workload,
                               config=name, ops_per_txn=ops_per_txn,
                               txns=txns, seed=seed)
                statuses.append(self.submit_retrying(spec))
        return statuses

    def wait_all(self, statuses: List[dict], timeout: float = 600.0,
                 via_events: bool = False) -> List[dict]:
        return [self.wait(status["id"], timeout=timeout,
                          via_events=via_events)
                for status in statuses]
