"""Keep-alive links from the coordinator to its shards.

Each shard has a small :class:`~repro.service.http.UpstreamPool`; proxied
reads, submits, event streams, scrapes and probes reuse its idle
connections.  The rules under test, with a
:class:`~repro.chaos.netproxy.ThreadedFaultProxy` or a deliberately flaky
server on the link:

* a pooled connection the shard closed while idle is retried once, on a
  new connection, without feeding the breaker;
* a reset or truncation after part of a response arrived is not retried
  and counts one breaker failure;
* an event stream cut mid-chunk closes both its connections and counts
  one breaker failure; the client resumes with ``Last-Event-ID``;
* the loser of a hedged read is closed, never pooled (its response is
  still on the wire);
* warm requests open no connection on either link, and each carries
  the submit, one status read and the result on each link, with no
  event stream; a request for a job still running follows its stream on
  the pooled connections.
"""

import asyncio
import socket
import time

import pytest

from repro.chaos.netproxy import NetFaultPlan, NetFaultSpec, ThreadedFaultProxy
from repro.cluster.breaker import CLOSED
from repro.cluster.coordinator import ThreadedCoordinator
from repro.service import JobSpec, ServiceClient, ThreadedServer
from repro.service.client import ServiceError
from repro.service.http import render_response
from repro.service.jobs import job_id_for
from tests.service.test_http import (
    ThreadedFlaky,
    _in_new_thread,
    _read_chunked,
)
from tests.service.test_sse_resume import (
    cold_request_lines,
    follow_paused_job,
    record_requests,
)

SCALE = dict(ops_per_txn=4, txns=2)


def spec_for(seed, workload="update", config="B"):
    return JobSpec(kind="simulate", workload=workload, config=config,
                   seed=seed, **SCALE)


@pytest.fixture
def shard(tmp_path):
    with ThreadedServer(max_workers=1, cache_dir=tmp_path / "cache") as server:
        yield server


def proxy_errors(threaded, shard="shard0"):
    return threaded.call(
        lambda: threaded.coordinator.metrics.proxy_errors.value(shard=shard))


def idle_connections(threaded, shard="shard0"):
    return threaded.call(lambda: threaded.coordinator.shards[shard].pool.idle)


class TestStaleRetry:
    def test_stale_pooled_connection_is_retried_transparently(self):
        """The flaky shard drops the second request on every connection
        unanswered: the coordinator retries it on a new connection and
        the client sees an ordinary answer both times."""
        with ThreadedFlaky(fail_on=2) as flaky, ThreadedCoordinator(
                shards=[("127.0.0.1", flaky.port)],
                probe_interval_s=60.0) as threaded:
            def reads():
                client = ServiceClient(port=threaded.port)
                statuses = []
                for _ in range(2):
                    with pytest.raises(ServiceError) as excinfo:
                        client.status("no-such-job")
                    statuses.append(excinfo.value.status)
                return statuses

            assert _in_new_thread(reads) == [404, 404]
            assert flaky.counts() == (2, 3)
            assert proxy_errors(threaded) == 0
            breaker = threaded.coordinator.shards["shard0"].breaker
            assert (breaker.state, breaker.samples, breaker.failure_rate) \
                == (CLOSED, 2, 0.0)


@pytest.mark.parametrize("action", ["reset", "truncate"])
def test_mid_body_fault_on_pooled_link_is_not_retried(shard, action):
    """The fault lets the first response through whole and cuts the
    second, on the same pooled connection, 5 bytes short."""
    unknown = render_response(404, {"error": "unknown job %r" % "no-such-job"})
    plan = NetFaultPlan(faults=[NetFaultSpec(
        action=action, times=1, direction="s2c",
        after_bytes=2 * len(unknown) - 5)])
    with ThreadedFaultProxy(upstream_host="127.0.0.1",
                            upstream_port=shard.port, plan=plan) as proxy, \
            ThreadedCoordinator(shards=[("127.0.0.1", proxy.port)],
                                probe_interval_s=60.0) as threaded:
        def reads():
            client = ServiceClient(port=threaded.port)
            statuses = []
            for _ in range(2):
                with pytest.raises(ServiceError) as excinfo:
                    client.status("no-such-job")
                statuses.append(excinfo.value.status)
            return statuses

        assert _in_new_thread(reads) == [404, 502]
        stats = proxy.stats()
        assert stats[action] == 1
        assert stats["connections"] == 1
        assert proxy_errors(threaded) == 1
        breaker = threaded.coordinator.shards["shard0"].breaker
        assert breaker.samples == 2 and breaker.failure_rate > 0
        assert idle_connections(threaded) == 0


def test_cancelled_hedged_read_is_never_pooled(shard):
    """shard0 fronts the shard through a link whose first connection
    waits 2 s; shard1 is the shard itself.  A read pinned to shard0 is
    hedged to shard1 and the slow exchange cancelled: its connection must
    be closed, or the next read on shard0 would get that stale answer on
    the same connection instead of opening a new one."""
    slow_first = NetFaultPlan(faults=[NetFaultSpec(
        action="latency", times=1, delay_s=2.0)])
    with ThreadedFaultProxy(upstream_host="127.0.0.1",
                            upstream_port=shard.port,
                            plan=slow_first) as proxy, ThreadedCoordinator(
                shards=[("127.0.0.1", proxy.port),
                        ("127.0.0.1", shard.port)],
                probe_interval_s=60.0, hedge_delay_s=0.5,
                read_timeout_s=5.0) as threaded:
        ring = threaded.coordinator.ring
        spec = next(spec_for(seed) for seed in range(1, 200)
                    if threaded.call(ring.lookup, job_id_for(spec_for(seed)))
                    == "shard1")
        client = ServiceClient(port=threaded.port, client_id="pytest")
        job_id = client.submit(spec)["id"]
        assert client.wait(job_id)["state"] == "done"
        assert proxy.stats()["connections"] == 0

        def pin_route():
            threaded.coordinator.routes[job_id].shard = "shard0"

        threaded.call(pin_route)
        hedged = client.status(job_id)
        assert hedged["shard"] == "shard1"
        assert idle_connections(threaded) == 0

        direct = client.status(job_id)
        assert direct["shard"] == "shard0"
        assert direct["state"] == "done"
        assert proxy.stats()["connections"] == 2
        assert idle_connections(threaded) == 1
        assert proxy_errors(threaded) == 0


def test_warm_requests_open_no_connections(shard):
    """client -> proxy -> coordinator -> proxy -> shard.  A warm request
    (submit, status, result) reuses the pooled connection on both hops;
    with ``Connection: close`` it opened one per request."""
    warm = 8
    with ThreadedFaultProxy(upstream_host="127.0.0.1",
                            upstream_port=shard.port) as shard_link, \
            ThreadedCoordinator(shards=[("127.0.0.1", shard_link.port)],
                                probe_interval_s=60.0) as threaded, \
            ThreadedFaultProxy(upstream_host="127.0.0.1",
                               upstream_port=threaded.port) as client_link:
        spec = spec_for(41)

        def request():
            client = ServiceClient(port=client_link.port, client_id="pytest")
            job_id = client.submit(spec)["id"]
            assert client.wait(job_id, via_events=True)["state"] == "done"
            return client.result(job_id)["digest"]

        def run():
            cold = request()
            before = (client_link.stats()["connections"],
                      shard_link.stats()["connections"])
            digests = [request() for _ in range(warm)]
            after = (client_link.stats()["connections"],
                     shard_link.stats()["connections"])
            return cold, digests, before, after

        cold, digests, before, after = _in_new_thread(run)
        assert digests == [cold] * warm
        assert after == before
        assert proxy_errors(threaded) == 0


def test_warm_request_is_three_requests_on_each_hop(shard):
    """A warm request asks for a job the shard has finished, so ``wait``
    finds it done on its first status read: each hop carries the submit,
    that read and the result, and no event stream."""
    with ThreadedCoordinator(shards=[("127.0.0.1", shard.port)],
                             probe_interval_s=60.0) as threaded:
        spec = spec_for(47)
        client = ServiceClient(port=threaded.port, client_id="pytest")
        job_id = client.submit(spec)["id"]
        assert client.wait(job_id)["state"] == "done"
        hops = record_requests(threaded), record_requests(shard)
        assert client.submit(spec)["state"] == "done"
        assert client.wait(job_id, via_events=True)["state"] == "done"
        client.result(job_id)
    expected = ["POST /jobs", "GET /jobs/%s" % job_id,
                "GET /jobs/%s/result" % job_id]
    assert hops == (expected, expected)


def test_running_job_is_followed_on_its_stream(shard):
    """client -> proxy -> coordinator -> proxy -> shard, with the shard's
    dispatch held until the event stream reached it: the wait follows
    the relayed stream, each hop carries the same five requests, and all
    of them share one connection per link, the stream's included."""
    with ThreadedFaultProxy(upstream_host="127.0.0.1",
                            upstream_port=shard.port) as shard_link, \
            ThreadedCoordinator(shards=[("127.0.0.1", shard_link.port)],
                                probe_interval_s=60.0) as threaded, \
            ThreadedFaultProxy(upstream_host="127.0.0.1",
                               upstream_port=threaded.port) as client_link:
        front = record_requests(threaded)
        job_id, state, lines = follow_paused_job(shard, client_link.port,
                                                 spec_for(49))
        links = (client_link.stats()["connections"],
                 shard_link.stats()["connections"])
    assert state == "done"
    assert front == lines == cold_request_lines(job_id)
    assert links == (1, 1)


def _stream_wire(port, job_id):
    """The shard's event stream for ``job_id`` as sent: (head length,
    chunked body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(("GET /jobs/%s/events HTTP/1.1\r\n\r\n"
                      % job_id).encode())
        head, _, body, _ = _read_chunked(sock)
    return len(head) + 4, body


def test_stream_cut_mid_chunk_resumes_and_is_not_pooled(shard):
    """The link cuts the coordinator's stream from the shard in the
    middle of its second chunk.  The coordinator relays the first event,
    ends the client's connection and counts one breaker failure; the
    client resumes after that event through the coordinator, which
    streams the rest on a new connection and pools only that one."""
    client = ServiceClient(port=shard.port, client_id="pytest")
    job_id = client.submit(spec_for(43))["id"]
    assert client.wait(job_id)["state"] == "done"
    expected = [event["event"] for event in client.watch(job_id)]
    head_len, body = _stream_wire(shard.port, job_id)
    first_chunk_end = body.index(b"\r\n", body.index(b"\n\n")) + 2
    cut = NetFaultPlan(faults=[NetFaultSpec(
        action="truncate", times=1, direction="s2c",
        after_bytes=head_len + first_chunk_end + 10)])
    with ThreadedFaultProxy(upstream_host="127.0.0.1",
                            upstream_port=shard.port, plan=cut) as proxy, \
            ThreadedCoordinator(shards=[("127.0.0.1", proxy.port)],
                                probe_interval_s=60.0) as threaded:
        def watch():
            watcher = ServiceClient(port=threaded.port, client_id="pytest")
            events = watcher.watch(job_id, reconnect_delay_s=0.01)
            first = next(events)["event"]
            links = proxy.stats()["connections"]
            deadline = time.monotonic() + 10
            while not proxy_errors(threaded):
                assert time.monotonic() < deadline, "the cut was not seen"
                time.sleep(0.01)
            idle_after_cut = idle_connections(threaded)
            rest = [event["event"] for event in events]
            return [first] + rest, links, idle_after_cut

        assert len(expected) >= 3
        # The first event came over the cut stream, the rest over the
        # resumed one, with nothing lost or repeated; the cut connection
        # was not pooled.
        assert _in_new_thread(watch) == (expected, 1, 0)
        stats = proxy.stats()
        assert (stats["truncate"], stats["connections"]) == (1, 2)
        assert idle_connections(threaded) == 1
        assert proxy_errors(threaded) == 1
        breaker = threaded.coordinator.shards["shard0"].breaker
        assert breaker.samples == 2 and breaker.failure_rate > 0


def test_eviction_closes_the_pool(shard):
    with ThreadedCoordinator(shards=[("127.0.0.1", shard.port)],
                             probe_interval_s=60.0) as threaded:
        ServiceClient(port=threaded.port).metrics()
        assert idle_connections(threaded) == 1

        def evict():
            coordinator = threaded.coordinator
            return coordinator._evict(coordinator.shards["shard0"])

        asyncio.run_coroutine_threadsafe(evict(), threaded._loop).result(10)
        assert idle_connections(threaded) == 0
        deadline = time.monotonic() + 10
        while shard.call(lambda: len(shard.server._connections)):
            assert time.monotonic() < deadline, "pooled connection left open"
            time.sleep(0.01)
