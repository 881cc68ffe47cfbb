"""The HTTP layer both servers share: submit parsing, keep-alive and
shutdown.

The single-node server and the cluster coordinator parse ``POST /jobs``
with one function (:func:`repro.service.jobs.parse_submit`), so a
malformed priority, or a JSON boolean where a spec field needs an
integer, is a 400 on both, never a 500 or a second job ID.  Both serve
request after request on one connection, event streams included, until
the client sends ``Connection: close``, and the
:class:`~repro.service.client.ServiceClient` reuses one connection per
thread, retrying once only when a reused connection fails before any
byte of the response arrives.  Stopping either server while a client is
half-way through sending a request must end that connection's handler
before the event loop closes: a handler left pending is destroyed with
the loop and reports "coroutine ignored GeneratorExit" through
``sys.unraisablehook``.
"""

import gc
import http.client
import json
import logging
import os
import signal
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.cluster.coordinator import ThreadedCoordinator
from repro.service import JobSpec, ServiceClient, ThreadedServer
from repro.service.client import TruncatedResponse
from repro.service.http import (
    BaseHttpServer,
    ThreadedHttpServer,
    render_response,
)
from repro.service.jobs import parse_submit

SPEC = JobSpec(kind="simulate", workload="update", config="B",
               ops_per_txn=4, txns=2).to_dict()

BAD_PRIORITIES = [None, [1], "3", True, 1.5, {"level": 1}]


class TestParseSubmit:
    def test_full_body(self):
        body = json.dumps({"spec": SPEC, "client": "alice",
                           "priority": 3}).encode()
        spec, client, priority = parse_submit({}, body)
        assert spec.to_dict() == SPEC
        assert (client, priority) == ("alice", 3)

    def test_bare_spec_takes_header_client_and_default_priority(self):
        spec, client, priority = parse_submit(
            {"x-client": "bob"}, json.dumps(SPEC).encode())
        assert spec.to_dict() == SPEC
        assert (client, priority) == ("bob", 0)

    @pytest.mark.parametrize("priority", BAD_PRIORITIES,
                             ids=[json.dumps(p) for p in BAD_PRIORITIES])
    def test_non_integer_priority_is_a_value_error(self, priority):
        body = json.dumps({"spec": SPEC, "priority": priority}).encode()
        with pytest.raises(ValueError, match="priority must be an integer"):
            parse_submit({}, body)

    @pytest.mark.parametrize("body", [b"[1]", b"{not json", b"\xff"])
    def test_malformed_body_is_a_value_error(self, body):
        with pytest.raises(ValueError):
            parse_submit({}, body)


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """A shard server and a coordinator in front of it."""
    cache = tmp_path_factory.mktemp("cache")
    with ThreadedServer(max_workers=1, cache_dir=cache) as shard:
        with ThreadedCoordinator(shards=[("127.0.0.1", shard.port)],
                                 probe_interval_s=0.2,
                                 probe_timeout_s=2.0) as coordinator:
            yield {"service": shard, "coordinator": coordinator}


def post_jobs(port, body: bytes):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


@pytest.mark.parametrize("kind", ["service", "coordinator"])
@pytest.mark.parametrize("priority", BAD_PRIORITIES,
                         ids=[json.dumps(p) for p in BAD_PRIORITIES])
def test_bad_priority_is_400(servers, kind, priority):
    body = json.dumps({"spec": SPEC, "client": "pytest",
                       "priority": priority}).encode()
    status, payload = post_jobs(servers[kind].port, body)
    assert status == 400, payload
    assert "priority must be an integer" in payload["error"]


INTEGER_FIELDS = ["ops_per_txn", "txns", "seed", "budget", "cores"]


@pytest.mark.parametrize("kind", ["service", "coordinator"])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_boolean_integer_field_is_400(servers, kind, field):
    """JSON ``true`` would run the same simulation as ``1`` under another
    job ID and cache key, so it is refused like any non-integer."""
    spec = dict(SPEC, **{field: True})
    if field == "budget":
        spec["kind"] = "optimize"
    body = json.dumps({"spec": spec, "client": "pytest"}).encode()
    status, payload = post_jobs(servers[kind].port, body)
    assert status == 400, payload
    assert "%s must be an integer" % field in payload["error"]


def _start(kind, tmp_path):
    if kind == "service":
        return ThreadedServer(max_workers=1, cache_dir=tmp_path).start()
    # Nothing listens on the shard port: the half-sent request never
    # gets far enough to be routed.
    return ThreadedCoordinator(shards=[("127.0.0.1", 9)],
                               probe_interval_s=5.0).start()


@pytest.mark.parametrize("kind", ["service", "coordinator"])
def test_stop_during_half_sent_request(kind, tmp_path, monkeypatch, caplog):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    threaded = _start(kind, tmp_path)
    sock = socket.create_connection(("127.0.0.1", threaded.port), timeout=10)
    try:
        sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 500\r\n\r\n"
                     b'{"spec": {"kind": "sim')
        deadline = time.monotonic() + 10
        while not threaded.call(lambda: len(threaded.server._connections)):
            assert time.monotonic() < deadline, "handler never started"
            time.sleep(0.01)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            threaded.stop()
            gc.collect()
    finally:
        sock.close()
    assert not threaded._thread.is_alive()
    assert not unraisable, [str(u.exc_value) for u in unraisable]
    assert not [r for r in caplog.records if r.name == "asyncio"], \
        [r.getMessage() for r in caplog.records]


# --- keep-alive ---------------------------------------------------------------


def _read_response(sock, buffered=b""):
    """One Content-Length framed response off ``sock``: (head, body, rest)."""
    data = buffered
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, "connection closed inside a response head"
        data += chunk
    head, _, data = data.partition(b"\r\n\r\n")
    length = int([line.split(b":")[1] for line in head.split(b"\r\n")
                  if line.lower().startswith(b"content-length")][0])
    while len(data) < length:
        chunk = sock.recv(4096)
        assert chunk, "connection closed inside a response body"
        data += chunk
    return head, data[:length], data[length:]


def _read_to_eof(sock) -> bytes:
    data = b""
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return data
        data += chunk


@pytest.mark.parametrize("kind", ["service", "coordinator"])
def test_sequential_requests_share_one_socket(servers, kind):
    threaded = servers[kind]
    with socket.create_connection(("127.0.0.1", threaded.port),
                                  timeout=10) as sock:
        rest = b""
        for _ in range(5):
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            head, body, rest = _read_response(sock, rest)
            assert head.startswith(b"HTTP/1.1 200 ")
            assert b"connection: close" not in head.lower()
            assert json.loads(body)["status"] in ("ok", "degraded")


@pytest.mark.parametrize("kind", ["service", "coordinator"])
def test_connection_close_is_honoured(servers, kind):
    with socket.create_connection(("127.0.0.1", servers[kind].port),
                                  timeout=10) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        data = _read_to_eof(sock)
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(body)


def _read_chunked(sock, buffered=b""):
    """One chunked response off ``sock``: (head, chunks, wire body, rest).

    The wire body is the chunked body as sent, last chunk included."""
    data = buffered
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, "connection closed inside a response head"
        data += chunk
    head, _, data = data.partition(b"\r\n\r\n")
    chunks, offset = [], 0
    while True:
        while b"\r\n" not in data[offset:]:
            more = sock.recv(4096)
            assert more, "connection closed inside a chunk size line"
            data += more
        line_end = data.index(b"\r\n", offset)
        size = int(data[offset:line_end], 16)
        end = line_end + 2 + size + 2
        while len(data) < end:
            more = sock.recv(4096)
            assert more, "connection closed inside a chunk"
            data += more
        assert data[end - 2:end] == b"\r\n"
        offset = end
        if not size:
            return head, chunks, data[:end], data[end:]
        chunks.append(data[line_end + 2:end - 2])


@pytest.mark.parametrize("kind", ["service", "coordinator"])
def test_event_stream_keeps_its_connection(servers, kind):
    """The stream is chunked, one event per chunk, ends with the last
    chunk, and the same socket then answers the next request."""
    client = ServiceClient(port=servers[kind].port, client_id="pytest")
    spec = dict(SPEC, seed=31)
    job_id = client.submit(spec)["id"]
    assert client.wait(job_id)["state"] == "done"
    with socket.create_connection(("127.0.0.1", servers[kind].port),
                                  timeout=10) as sock:
        sock.sendall(("GET /jobs/%s/events HTTP/1.1\r\n\r\n"
                      % job_id).encode())
        head, chunks, body, rest = _read_chunked(sock)
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"text/event-stream" in head
        assert b"transfer-encoding: chunked" in head.lower()
        assert b"content-length" not in head.lower()
        assert b"connection: close" not in head.lower()
        assert body.endswith(b"\r\n0\r\n\r\n")
        assert chunks[-1].endswith(b'"event": "done", "job": "%s"}\n\n'
                                   % job_id.encode())
        assert all(chunk.startswith(b"id: %d\n" % index)
                   for index, chunk in enumerate(chunks))
        sock.sendall(("GET /jobs/%s HTTP/1.1\r\n\r\n" % job_id).encode())
        head, status, _ = _read_response(sock, rest)
    assert head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(status)["state"] == "done"


def test_responses_are_compact_json():
    response = render_response(200, {"a": [1, 2], "b": {"c": 3}})
    assert response.endswith(b'\r\n\r\n{"a": [1, 2], "b": {"c": 3}}\n')


class _FlakyServer(BaseHttpServer):
    """Answers ``/healthz``, but on the ``fail_on``-th request of each
    connection it closes the connection after sending
    ``response[:send_bytes]`` (0: nothing; -5: all but the last 5 bytes)."""

    def __init__(self, fail_on: int, send_bytes: int = 0, **kwargs):
        super().__init__(**kwargs)
        self.fail_on = fail_on
        self.send_bytes = send_bytes
        self.connections = 0
        self.requests = 0
        self._served = {}

    async def _handle_connection(self, reader, writer):
        self.connections += 1
        await super()._handle_connection(reader, writer)

    async def _route(self, method, target, headers, body, writer):
        self.requests += 1
        count = self._served[writer] = self._served.get(writer, 0) + 1
        response = render_response(
            200 if target == "/healthz" else 404,
            {"status": "ok"} if target == "/healthz"
            else {"error": "unknown job"})
        if count == self.fail_on:
            writer.write(response[:self.send_bytes])
            await writer.drain()
            writer.transport.abort()
            return
        writer.write(response)


class ThreadedFlaky(ThreadedHttpServer):
    thread_name = "repro-flaky"

    def _build(self):
        return _FlakyServer(**self._kwargs)

    def counts(self):
        return self.call(lambda: (self.server.connections,
                                  self.server.requests))


def _in_new_thread(fn):
    """Run ``fn`` in a fresh thread (so it starts with no pooled
    connection) and return its value or raise its exception."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(30)
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestClientKeepAlive:
    def test_one_connection_per_thread_across_clients(self):
        with ThreadedFlaky(fail_on=0) as flaky:
            def calls():
                # A new client per call, as the CLI and the benchmark do.
                return [ServiceClient(port=flaky.port).healthz()
                        for _ in range(5)]

            assert _in_new_thread(calls) == [{"status": "ok"}] * 5
            assert flaky.counts() == (1, 5)

    def test_stale_connection_is_retried_once(self):
        """The second request on every connection is dropped unanswered,
        as by a server closing an idle connection: each reused call is
        retried on a new connection, transparently."""
        with ThreadedFlaky(fail_on=2) as flaky:
            def calls():
                client = ServiceClient(port=flaky.port)
                return [client.healthz() for _ in range(3)]

            assert _in_new_thread(calls) == [{"status": "ok"}] * 3
            # 1st call: conn A.  2nd: A dropped, B.  3rd: B dropped, C.
            assert flaky.counts() == (3, 5)

    def test_new_connection_is_never_retried(self):
        with ThreadedFlaky(fail_on=1) as flaky:
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                _in_new_thread(ServiceClient(port=flaky.port).healthz)
            assert flaky.counts() == (1, 1)

    def test_partial_response_is_never_retried(self):
        with ThreadedFlaky(fail_on=2, send_bytes=-5) as flaky:
            def calls():
                client = ServiceClient(port=flaky.port)
                client.healthz()
                client.healthz()

            with pytest.raises((ConnectionError, http.client.HTTPException)):
                _in_new_thread(calls)
            assert flaky.counts() == (1, 2)

    @pytest.mark.parametrize("fail_on", [1, 2])
    def test_cut_response_head_is_a_transport_error(self, fail_on):
        """A 200 cut 30 bytes in, inside its head, on a new connection
        and on a reused one: ``http.client`` ends the head at EOF and
        would hand back an empty payload.  The response is framed by
        neither Content-Length nor chunks, so it is a truncation, and
        its bytes arrived, so it is not retried."""
        with ThreadedFlaky(fail_on=fail_on, send_bytes=30) as flaky:
            def calls():
                client = ServiceClient(port=flaky.port)
                for _ in range(fail_on):
                    client.healthz()

            with pytest.raises(TruncatedResponse, match="cut short"):
                _in_new_thread(calls)
            assert flaky.counts() == (1, fail_on)

    def test_thread_exit_closes_its_connections(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with ThreadedFlaky(fail_on=0) as flaky:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _in_new_thread(ServiceClient(port=flaky.port).healthz)
                gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)], \
            [str(w.message) for w in caught]
        assert not unraisable


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_close_reaches_client_despite_a_forked_copy(tmp_path):
    """A process forked while a keep-alive connection is open (the
    supervisor's pool workers) holds a copy of its socket.  When the
    server ends the connection, the client must still see it end and
    reconnect, not send its next request into a socket nobody reads."""
    with ThreadedServer(max_workers=1, cache_dir=tmp_path) as server:
        def calls():
            client = ServiceClient(port=server.port, timeout=5.0)
            client.healthz()
            child = os.fork()
            if child == 0:
                time.sleep(10)
                os._exit(0)
            try:
                # End every idle connection, as the idle timeout does.
                server.call(lambda: [task.cancel() for task
                                     in server.server._connections])
                time.sleep(0.2)
                start = time.monotonic()
                client.healthz()
                return time.monotonic() - start
            finally:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)

        assert _in_new_thread(calls) < 2.0


def test_stop_closes_idle_keepalive_connections(tmp_path, monkeypatch):
    """Stopping the coordinator closes its idle pooled connections to the
    shard, and stopping the shard closes the client's idle one; nothing is
    left for the garbage collector to warn about."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shard = ThreadedServer(max_workers=1, cache_dir=tmp_path).start()
        coordinator = ThreadedCoordinator(
            shards=[("127.0.0.1", shard.port)],
            probe_interval_s=60.0).start()

        def open_connections():
            return shard.call(lambda: len(shard.server._connections))

        def exercise():
            client = ServiceClient(port=coordinator.port)
            client.metrics()
            with pytest.raises(Exception):
                client.status("no-such-job")
            ServiceClient(port=shard.port).healthz()

        _in_new_thread(exercise)
        assert open_connections() >= 1
        coordinator.stop()
        deadline = time.monotonic() + 10
        while open_connections():
            assert time.monotonic() < deadline, "pooled connection left open"
            time.sleep(0.01)
        shard.stop()
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)], \
        [str(w.message) for w in caught]
    assert not unraisable, [str(u.exc_value) for u in unraisable]
