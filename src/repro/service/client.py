"""Blocking HTTP client for the simulation service.

Used by the CLI, the CI smoke job, the benchmarks and the end-to-end
tests.  It feeds a plain socket into the service path's one HTTP/1.1
codec (:mod:`repro.service.http`), the parser the coordinator and the
servers use too.  Each thread keeps one keep-alive connection per
``(host, port)`` that every :class:`ServiceClient` in it reuses, event
streams included; a watch abandoned or cut closes it.  The codec's
reuse rule holds: a reused connection that ends before any byte of the
response is retried once on a new one, nothing else is retried, and a
response cut short raises :class:`TruncatedResponse`.  Raises
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

import collections
import json
import pickle
import random
import socket
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.service.http import (
    END,
    NEED_DATA,
    READ_SIZE,
    Head,
    HttpParser,
    TruncatedResponse,
    _StaleConnection,
    render_request,
    split_events,
)
from repro.service.jobs import JobSpec, JobState

__all__ = ["Backpressure", "MAX_PEERS", "ServiceClient", "ServiceError",
           "TruncatedResponse", "parse_metrics"]


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


class _ThreadConnections:
    """One thread's keep-alive connections by ``(host, port)``.

    Closed when the thread ends, so no socket is left to the garbage
    collector.
    """

    def __init__(self):
        #: ``(host, port)`` -> socket, least recently used first.
        self.by_peer: Dict[Tuple[str, int], socket.socket] = \
            collections.OrderedDict()

    def give_back(self, peer: Tuple[str, int], sock: socket.socket) -> None:
        self.by_peer[peer] = sock
        while len(self.by_peer) > MAX_PEERS:
            self.by_peer.popitem(last=False)[1].close()

    def __del__(self):
        for sock in self.by_peer.values():
            sock.close()


_LOCAL = threading.local()


def _connections() -> _ThreadConnections:
    conns = getattr(_LOCAL, "conns", None)
    if conns is None:
        conns = _LOCAL.conns = _ThreadConnections()
    return conns


def _events(sock: socket.socket, parser: HttpParser) -> Iterator:
    """The rest of the response as its bytes arrive off ``sock``: its
    head if that is still to come, then its body pieces."""
    while True:
        event = parser.next_event()
        if event is END:
            return
        if event is not NEED_DATA:
            yield event
            continue
        try:
            data = sock.recv(READ_SIZE)
        except ConnectionError:
            data = b""
        parser.feed(data)


def _stream_events(sock: socket.socket, parser: HttpParser
                   ) -> Iterator[Tuple[Optional[int], dict]]:
    """``(id, event)`` for each SSE event of the body as it arrives;
    ``id`` is None for an event without a numeric ``id:`` field."""
    rest = b""
    for piece in _events(sock, parser):
        events, rest = split_events(rest + piece)
        for event in events:
            yield event.id, json.loads(event.data)


def _decode(data: bytes):
    """A response body as JSON, or as text when it is not JSON."""
    try:
        return json.loads(data.decode())
    except (ValueError, UnicodeDecodeError):
        return data.decode("latin-1")


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
        headers = {"Host": "%s:%d" % (self.host, self.port),
                   "X-Client": self.client_id}
        if self.deadline_s is not None:
            headers["X-Deadline"] = "%g" % self.deadline_s
        return headers

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None, raw: bool = False):
        payload = json.dumps(body).encode() if body is not None else None
        sock, parser, head = self._send(method, path, payload,
                                        self._headers())
        data = self._finish(sock, parser)
        if raw and 200 <= head.status < 300:
            return data
        decoded = _decode(data)
        if head.status == 429:
            raise Backpressure(head.status, decoded)
        if not 200 <= head.status < 300:
            raise ServiceError(head.status, decoded)
        return decoded

    def _send(self, method: str, path: str, payload: Optional[bytes],
              headers: Dict[str, str]
              ) -> Tuple[socket.socket, HttpParser, Head]:
        """Send one request on this thread's connection to the peer, or
        on a new one; return the connection, its parser and the response
        head.  The caller reads the body with :meth:`_finish`, or closes
        the connection."""
        request = render_request(method, path, payload, headers)
        sock = _connections().by_peer.pop((self.host, self.port), None)
        if sock is not None:
            sock.settimeout(self.timeout)
            try:
                return self._start(sock, request, reused=True)
            except _StaleConnection:
                pass  # closed while idle: once more, on a new one
        sock = socket.create_connection((self.host, self.port),
                                        self.timeout)
        return self._start(sock, request, reused=False)

    @staticmethod
    def _start(sock: socket.socket, request: bytes, reused: bool
               ) -> Tuple[socket.socket, HttpParser, Head]:
        """Send ``request`` and read the response head; closes ``sock``
        on any failure."""
        parser = HttpParser(reused=reused)
        try:
            try:
                sock.sendall(request)
            except ConnectionError:
                pass  # the parser tells a stale connection from a cut one
            return sock, parser, next(_events(sock, parser))
        except BaseException:
            sock.close()
            raise

    def _finish(self, sock: socket.socket, parser: HttpParser) -> bytes:
        """The rest of the body; then the connection is kept if it may
        carry the next request, and closed otherwise."""
        try:
            return b"".join(_events(sock, parser))
        finally:
            if parser.reusable:
                _connections().give_back((self.host, self.port), sock)
            else:
                sock.close()

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
        Without an ``rng``, one is built at the first rejection: seeding
        it reads ``os.urandom``, which a first-try admission need not pay.
        """
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
                if rng is None:
                    rng = random.Random()
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

        When the stream drops mid-flight (proxy reset, truncation,
        coordinator restart, 5xx while a shard re-routes) this
        reconnects with ``Last-Event-ID`` and resumes after the last
        event seen: no duplicates, no raise.  Only a 4xx answer or the
        timeout aborts the watch.  The stream runs on the thread's
        pooled connection, given back after its last chunk.
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
            sock = None
            terminal = None
            try:
                sock, parser, head = self._send("GET", path, None, headers)
                if head.status != 200:
                    data = self._finish(sock, parser)
                    sock = None
                    if head.status < 500:
                        raise ServiceError(head.status, _decode(data))
                    # 5xx: the shard is mid-reroute; retry.
                else:
                    for event_id, event in _stream_events(sock, parser):
                        if event_id is not None:
                            last_id = event_id
                        if event.get("event") in JobState.TERMINAL:
                            terminal = event
                            self._finish(sock, parser)  # the last chunk
                            sock = None
                            break
                        yield event
            except OSError:
                pass  # the stream dropped: resume after the last event
            finally:
                if sock is not None:
                    sock.close()
            if terminal is not None:
                yield terminal
                return
            time.sleep(reconnect_delay_s)

    def wait(self, job_id: str, timeout: float = 600.0,
             poll_s: float = 0.05, via_events: bool = False) -> dict:
        """Block until the job is terminal; return its final status.

        The status is read first, and a terminal one is returned as it
        is.  Only a job still queued or running is then followed:
        ``via_events=True`` on its SSE stream (with automatic
        ``Last-Event-ID`` reconnects), otherwise by polling every
        ``poll_s``; either way its final status is read again at the end.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in JobState.TERMINAL:
                return status
            remaining = deadline - time.monotonic()
            if remaining < 0:
                raise TimeoutError(
                    "job %s still %r after %gs"
                    % (job_id, status["state"], timeout))
            if via_events:
                for _ in self.watch(job_id, timeout=remaining):
                    pass
            else:
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
