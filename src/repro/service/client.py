"""Blocking HTTP client for the simulation service.

A thin ``http.client`` wrapper (stdlib only) used by the CLI, the CI
smoke job, the benchmarks and the end-to-end tests.  Each thread keeps
one keep-alive connection per ``(host, port)`` and every
:class:`ServiceClient` in that thread reuses it, so a caller that
builds a new client per request still opens no new connection.  An
event stream (:meth:`ServiceClient.watch`) runs on the same connection
and gives it back once its last chunk is read; a watch that is
abandoned or cut closes it instead.  A reused connection that fails
before any byte of the response arrives (the server closed it while it
sat idle) is retried once on a new one; nothing else is retried.  Every
response is framed by ``Content-Length`` or chunked encoding, so one
framed by neither was cut short and raises :class:`TruncatedResponse`.
Raises :class:`ServiceError` for every non-2xx response except
backpressure, which gets its own :class:`Backpressure` carrying the
server's retry-after hint so callers can implement honest retry loops.

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

import collections
import http.client
import json
import pickle
import random
import select
import socket
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

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


#: Peers one thread keeps a connection to; the least recently used one
#: beyond this is closed.
MAX_PEERS = 8


class TruncatedResponse(ConnectionError):
    """A response framed by neither ``Content-Length`` nor chunked
    encoding: the server cut it short (``http.client`` ends a head at
    EOF, so the cut would otherwise pass for a complete response)."""


class _StaleConnection(Exception):
    """A reused connection failed before any byte of the response."""


class _ThreadConnections:
    """One thread's keep-alive connections by ``(host, port)``.

    Closed when the thread ends, so no socket is left to the garbage
    collector.
    """

    def __init__(self):
        #: ``(host, port)`` -> connection, least recently used first.
        self.by_peer: Dict[Tuple[str, int], http.client.HTTPConnection] = \
            collections.OrderedDict()

    def take(self, peer: Tuple[str, int]
             ) -> Optional[http.client.HTTPConnection]:
        """The idle connection to ``peer``, if the server kept it open."""
        conn = self.by_peer.pop(peer, None)
        if conn is not None and (conn.sock is None or _readable(conn.sock)):
            # An idle connection with something to read was closed by
            # the server (or holds bytes nobody asked for).
            conn.close()
            conn = None
        return conn

    def give_back(self, peer: Tuple[str, int],
                  conn: http.client.HTTPConnection) -> None:
        self.by_peer[peer] = conn
        while len(self.by_peer) > MAX_PEERS:
            self.by_peer.popitem(last=False)[1].close()

    def __del__(self):
        for conn in self.by_peer.values():
            conn.close()


_LOCAL = threading.local()


def _connections() -> _ThreadConnections:
    conns = getattr(_LOCAL, "conns", None)
    if conns is None:
        conns = _LOCAL.conns = _ThreadConnections()
    return conns


def _readable(sock: socket.socket) -> bool:
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _decode(data: bytes):
    """A response body as JSON, or as text when it is not JSON."""
    try:
        return json.loads(data.decode())
    except (ValueError, UnicodeDecodeError):
        return data.decode("latin-1")


def _sse_events(response: http.client.HTTPResponse
                ) -> Iterator[Tuple[Optional[int], dict]]:
    """``(id, event)`` for each SSE event of ``response`` as it arrives;
    ``id`` is None for an event without a numeric ``id:`` field."""
    buffered = b""
    while True:
        data = response.read1(65536)
        if not data:
            return
        *blocks, buffered = (buffered + data).split(b"\n\n")
        for block in blocks:
            fields: Dict[str, str] = {}
            for line in block.decode("utf-8", "replace").splitlines():
                name, _, value = line.partition(":")
                fields[name.strip()] = value.strip()
            if "data" not in fields:
                continue
            try:
                event_id: Optional[int] = int(fields["id"])
            except (KeyError, ValueError):
                event_id = None
            yield event_id, json.loads(fields["data"])


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
        payload = json.dumps(body).encode() if body is not None else None
        conn, response = self._send(method, path, payload, self._headers())
        try:
            data = response.read()
        except BaseException:
            conn.close()
            raise
        self._release(conn, response)
        if raw and 200 <= response.status < 300:
            return data
        decoded = _decode(data)
        if response.status == 429:
            raise Backpressure(response.status, decoded)
        if not 200 <= response.status < 300:
            raise ServiceError(response.status, decoded)
        return decoded

    def _send(self, method: str, path: str, payload: Optional[bytes],
              headers: Dict[str, str]
              ) -> Tuple[http.client.HTTPConnection,
                         http.client.HTTPResponse]:
        """Send one request on this thread's connection to the peer, or
        on a new one; return the connection and the response, its head
        read.  The caller reads the body, then hands the connection to
        :meth:`_release`, or closes it if the body was not read to its
        end."""
        conn = _connections().take((self.host, self.port))
        if conn is not None:
            conn.sock.settimeout(self.timeout)
            try:
                return conn, self._start(conn, method, path, payload,
                                         headers, reused=True)
            except _StaleConnection:
                pass  # closed while idle: once more, on a new one
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        return conn, self._start(conn, method, path, payload, headers,
                                 reused=False)

    def _start(self, conn: http.client.HTTPConnection, method: str,
               path: str, payload: Optional[bytes], headers: Dict[str, str],
               reused: bool) -> http.client.HTTPResponse:
        """Send one request and read its response head; closes ``conn``
        on any failure.  Raises :class:`_StaleConnection` when a
        ``reused`` connection fails before any byte of the response
        arrives, and :class:`TruncatedResponse` for an unframed one."""
        try:
            try:
                conn.request(method, path, body=payload, headers=headers)
                started = bool(conn.sock.recv(1, socket.MSG_PEEK))
            except ConnectionError:
                if not reused:
                    raise
                started = False
            if reused and not started:
                raise _StaleConnection()
            response = conn.getresponse()
            if response.length is None and not response.chunked:
                response.close()  # it holds the socket, not conn
                raise TruncatedResponse(
                    "HTTP %d response from %s:%d was cut short: it is "
                    "framed by neither Content-Length nor chunked encoding"
                    % (response.status, self.host, self.port))
            return response
        except BaseException:
            conn.close()
            raise

    def _release(self, conn: http.client.HTTPConnection,
                 response: http.client.HTTPResponse) -> None:
        """Keep a connection whose response was read to its end."""
        if not response.will_close:
            _connections().give_back((self.host, self.port), conn)

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
        job genuinely is unknown) or the timeout aborts the watch.  The
        stream runs on the thread's pooled connection, which is given
        back once the stream's last chunk is read; a watch abandoned
        early, or a stream cut short, closes it instead.
        """
        deadline = time.monotonic() + timeout
        last_id: Optional[int] = None
        path = "/jobs/%s/events" % job_id
        while True:
            if time.monotonic() > deadline:
                raise TimeoutError("job %s events still open after %gs"
                                   % (job_id, timeout))
            headers = self._headers()
            if last_id is not None:
                headers["Last-Event-ID"] = str(last_id)
            conn = None
            terminal = None
            try:
                conn, response = self._send("GET", path, None, headers)
                if response.status != 200:
                    data = response.read()
                    self._release(conn, response)
                    conn = None
                    if response.status < 500:
                        raise ServiceError(response.status, _decode(data))
                    # 5xx: the shard is mid-reroute; retry.
                else:
                    for event_id, event in _sse_events(response):
                        if event_id is not None:
                            last_id = event_id
                        if event.get("event") in JobState.TERMINAL:
                            terminal = event
                            response.read()  # the last chunk
                            self._release(conn, response)
                            conn = None
                            break
                        yield event
            except (ConnectionError, OSError, http.client.HTTPException):
                pass  # the stream dropped: resume after the last event
            finally:
                if conn is not None:
                    conn.close()
            if terminal is not None:
                yield terminal
                return
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
