"""SSE resumption: server event IDs + client ``Last-Event-ID`` replay.

The watch stream used to be fire-and-forget: a dropped connection
mid-``wait_all`` raised out of the client.  Now every event carries an
``id:`` line, a reconnecting client sends the standard
``Last-Event-ID`` header, and the server replays from the event *after*
it — so a truncated stream (proxy fault, coordinator restart) costs a
reconnect, never a duplicate or a lost event.
"""

import http.client
import json
import threading
import time

import pytest

from repro.chaos.netproxy import NetFaultPlan, NetFaultSpec, ThreadedFaultProxy
from repro.service import JobSpec, ServiceClient, ThreadedServer
from repro.service.client import _connections
from repro.workloads import Scale

SCALE = Scale(ops_per_txn=4, txns=2)


def spec_for(workload, config, **overrides):
    fields = dict(kind="simulate", workload=workload, config=config,
                  ops_per_txn=SCALE.ops_per_txn, txns=SCALE.txns,
                  seed=SCALE.seed)
    fields.update(overrides)
    return JobSpec(**fields)


@pytest.fixture
def server(tmp_path):
    with ThreadedServer(max_workers=1, cache_dir=tmp_path / "cache") as srv:
        yield srv


@pytest.fixture
def finished_job(server):
    client = ServiceClient(port=server.port, client_id="pytest")
    status = client.submit(spec_for("update", "B"))
    client.wait(status["id"])
    return status["id"]


def record_requests(threaded):
    """``"METHOD target"`` of every request the server of ``threaded``
    routes from now on, in the order they arrive."""
    lines = []
    server = threaded.server
    route = server._route

    async def recording(method, target, headers, body, writer):
        lines.append("%s %s" % (method, target))
        await route(method, target, headers, body, writer)

    server._route = recording
    return lines


def follow_paused_job(shard, port, spec):
    """Submit ``spec`` to the server on ``port`` and wait for it with
    ``wait(via_events=True)``, then read its result, all in a fresh
    thread, while ``shard`` (which runs the job) holds dispatch.  Dispatch
    resumes only once the shard was asked for the job's event stream, so
    the wait cannot find the job done on its first status read.  Returns
    the job ID, its final state and the request lines the shard got."""
    lines = record_requests(shard)
    outcome = {}

    def request():
        try:
            client = ServiceClient(port=port, client_id="pytest")
            outcome["id"] = client.submit(spec)["id"]
            outcome["state"] = client.wait(outcome["id"], timeout=60,
                                           via_events=True)["state"]
            client.result(outcome["id"])
        except BaseException as exc:
            outcome["error"] = exc

    shard.call(shard.scheduler.pause)
    worker = threading.Thread(target=request)
    worker.start()
    try:
        deadline = time.monotonic() + 30
        while not any(line.endswith("/events") for line in lines):
            assert worker.is_alive(), outcome
            assert time.monotonic() < deadline, "no event stream opened"
            time.sleep(0.01)
    finally:
        shard.call(shard.scheduler.resume)
        worker.join(60)
    assert not worker.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["id"], outcome["state"], lines


def cold_request_lines(job_id):
    """What a request for a job not yet done sends: the submit, a status
    read that finds it not done, its event stream, the final status and
    the result."""
    return ["POST /jobs", "GET /jobs/%s" % job_id,
            "GET /jobs/%s/events" % job_id, "GET /jobs/%s" % job_id,
            "GET /jobs/%s/result" % job_id]


def _raw_stream(port, job_id, last_event_id=None):
    """One raw events connection; returns the response body bytes."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    headers = {}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    conn.request("GET", "/jobs/%s/events" % job_id, headers=headers)
    response = conn.getresponse()
    assert response.status == 200
    assert response.getheader("Content-Type") == "text/event-stream"
    body = response.read()
    conn.close()
    return body


def _event_ids(body):
    return [int(line.split(":", 1)[1])
            for line in body.decode().splitlines()
            if line.startswith("id:")]


class TestServerSide:
    def test_events_carry_sequential_ids(self, server, finished_job):
        body = _raw_stream(server.port, finished_job)
        ids = _event_ids(body)
        assert ids == list(range(len(ids)))
        assert len(ids) >= 2                      # at least queued + done
        assert "event: done" in body.decode()

    def test_last_event_id_resumes_after_that_event(self, server,
                                                    finished_job):
        full = _event_ids(_raw_stream(server.port, finished_job))
        resumed = _event_ids(_raw_stream(server.port, finished_job,
                                         last_event_id=0))
        assert resumed == full[1:]
        # Resuming past the end replays nothing but still terminates.
        tail = _event_ids(_raw_stream(server.port, finished_job,
                                      last_event_id=full[-1]))
        assert tail == []


class TestClientWatch:
    def test_watch_yields_every_event_once(self, server, finished_job):
        client = ServiceClient(port=server.port, client_id="pytest")
        events = list(client.watch(finished_job))
        assert [e["event"] for e in events][-1] == "done"
        assert len(events) == len(_event_ids(_raw_stream(server.port,
                                                         finished_job)))

    def test_wait_via_events(self, server):
        client = ServiceClient(port=server.port, client_id="pytest")
        status = client.submit(spec_for("swap", "WB"))
        final = client.wait(status["id"], via_events=True)
        assert final["state"] == "done"

    def test_wait_follows_the_stream_of_a_running_job(self, server):
        job_id, state, lines = follow_paused_job(
            server, server.port, spec_for("swap", "IQ"))
        assert state == "done"
        assert lines == cold_request_lines(job_id)

    def test_wait_reads_a_finished_job_once(self, server, finished_job):
        """A job already done is returned from the first status read;
        no event stream is opened."""
        lines = record_requests(server)
        client = ServiceClient(port=server.port, client_id="pytest")
        assert client.wait(finished_job, via_events=True)["state"] == "done"
        assert lines == ["GET /jobs/%s" % finished_job]

    def test_watch_resumes_across_a_truncated_stream(self, server,
                                                     finished_job):
        """Cut the stream mid-flight after exactly one event: the watch
        must reconnect with Last-Event-ID and deliver the remainder —
        no duplicates, no raise."""
        raw = _raw_stream(server.port, finished_job)
        full_ids = _event_ids(raw)
        # Byte offset of the end of the first event block, counted from
        # the start of the response (headers included), so the proxy's
        # s2c budget cuts exactly there.
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("GET", "/jobs/%s/events" % finished_job)
        resp = conn.getresponse()
        header_bytes = len(b"HTTP/1.1 200 OK\r\n") + sum(
            len(("%s: %s\r\n" % (k, v)).encode())
            for k, v in resp.getheaders()) + 2
        conn.close()
        # The first event is the first chunk: its size line, the event
        # and the chunk's closing CRLF.
        first_event_len = raw.index(b"\n\n") + 2
        cut_at = (header_bytes + len(b"%x\r\n" % first_event_len)
                  + first_event_len + 2)

        plan = NetFaultPlan(faults=[NetFaultSpec(
            action="truncate", times=1, after_bytes=cut_at,
            direction="s2c")])
        with ThreadedFaultProxy(upstream_host="127.0.0.1",
                                upstream_port=server.port,
                                plan=plan) as proxy:
            client = ServiceClient(port=proxy.port, client_id="pytest")
            events = list(client.watch(finished_job))
            stats = proxy.stats()
        assert stats["truncate"] == 1
        assert stats["connections"] >= 2          # the reconnect happened
        assert len(events) == len(full_ids)       # nothing lost
        assert [e["event"] for e in events][-1] == "done"
        # No duplicates: the event sequence is exactly the full replay.
        replay = [json.loads(line.split(":", 1)[1])
                  for line in raw.decode().splitlines()
                  if line.startswith("data:")]
        assert [e["event"] for e in events] == [e["event"] for e in replay]


def test_abandoned_watch_closes_its_connection(server):
    """A watch given up after its first event, on a job still queued,
    closes its connection instead of pooling one with the rest of the
    stream unread; the next call on that thread opens a new one."""
    server.call(server.scheduler.pause)
    try:
        with ThreadedFaultProxy(upstream_host="127.0.0.1",
                                upstream_port=server.port) as proxy:
            outcome = {}

            def abandon():
                client = ServiceClient(port=proxy.port, client_id="pytest")
                job_id = client.submit(spec_for("update", "IQ"))["id"]
                events = client.watch(job_id)
                outcome["first"] = next(events)["event"]
                events.close()
                outcome["pooled"] = ("127.0.0.1", proxy.port) \
                    in _connections().by_peer
                outcome["state"] = client.status(job_id)["state"]

            worker = threading.Thread(target=abandon)
            worker.start()
            worker.join(30)
            assert not worker.is_alive()
            stats = proxy.stats()
    finally:
        server.call(server.scheduler.resume)
    assert outcome == {"first": "queued", "pooled": False,
                       "state": "queued"}
    assert stats["connections"] == 2
