"""The HTTP layer both servers share: submit parsing and shutdown.

The single-node server and the cluster coordinator parse ``POST /jobs``
with one function (:func:`repro.service.jobs.parse_submit`), so a
malformed priority, or a JSON boolean where a spec field needs an
integer, is a 400 on both, never a 500 or a second job ID.  Stopping either
server while a client is half-way through sending a request must end
that connection's handler before the event loop closes: a handler left
pending is destroyed with the loop and reports "coroutine ignored
GeneratorExit" through ``sys.unraisablehook``.
"""

import gc
import http.client
import json
import logging
import socket
import sys
import time

import pytest

from repro.cluster.coordinator import ThreadedCoordinator
from repro.service import JobSpec, ThreadedServer
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
