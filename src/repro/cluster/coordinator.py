"""Cluster coordinator: consistent-hash routing, proxying, federation.

One coordinator fronts N shard workers (each a full
:class:`~repro.service.server.ServiceServer` process) and presents the
*same* HTTP surface as a single service, so every existing client — the
:class:`~repro.service.client.ServiceClient`, the CLI, the benchmarks —
talks to a cluster unchanged.  What the coordinator adds:

* **Consistent-hash routing** (``POST /jobs``): the job's
  content-addressed ID (the result-cache key) is placed on the
  :class:`~repro.cluster.hashring.HashRing`, so duplicate submissions —
  from any client, any time — always land on the same shard and the
  shard's single-flight dedup keeps the cluster-wide exactly-once
  guarantee.  The winning shard's name is stamped into the response.
* **A write-ahead journal** (:mod:`repro.cluster.journal`, optional):
  every admission (submit body + tenant), routing decision, completion
  and membership change is appended to a CRC-framed on-disk log before
  the response leaves, so a coordinator killed at *any* instruction can
  be restarted from the journal: it rebuilds the routed-job table,
  re-probes its shards and re-submits every unfinished job — a replayed
  job that actually finished is a shared-result-cache hit and one still
  running coalesces on its shard, so exactly-once survives the crash.
* **Per-tenant token-bucket rate limiting** before any shard is
  touched: a tenant that bursts past its bucket gets ``429`` + an
  honest ``Retry-After``; other tenants are untouched.
* **Keep-alive upstream links**: each shard has a small
  :class:`~repro.service.http.UpstreamPool` of idle HTTP/1.1
  connections that proxied reads, submits, event streams, metrics
  scrapes and health probes reuse.  An event stream is relayed chunk by
  chunk and its connection goes back to the pool after the last chunk;
  a stream cut upstream ends the client's connection too, and the
  client resumes with ``Last-Event-ID``.  A pooled connection the shard
  closed while idle is retried once on a new one; every other transport
  failure feeds the breaker.  The pools are closed on eviction and on
  stop.
* **Per-shard circuit breakers**: every upstream exchange feeds the
  shard's breaker; an open breaker excludes the shard from routing (the
  ring walks to the deterministic next owner) and half-open probes
  re-admit it, so one sick shard cannot stall the fleet.
* **Deadline-bounded, hedged status/result proxying** (``GET
  /jobs/<id>...``): a client-sent ``X-Deadline`` header caps every
  upstream exchange spent answering that request (expired budget is an
  honest ``504``), per-read timeouts are bounded (``read_timeout_s``)
  instead of inheriting the 10-minute submit budget, and when the
  recorded owner is slow the remaining candidates are *hedged* —
  probed concurrently after ``hedge_delay_s`` — so one black-holed
  link costs one read timeout, not a timeout per candidate.  Lookups
  follow the recorded route, falling back to ring placement and
  finally a shard sweep; while a job's shard is down awaiting re-route
  the coordinator answers with a synthetic ``queued`` status so pollers
  keep polling instead of erroring.
* **Federated ``/metrics``**: each shard's Prometheus page is fetched,
  every sample is relabelled with ``shard="<name>"``, families are
  merged in first-seen order, and the coordinator's own
  ``repro_cluster_*`` series are appended — one scrape shows the fleet.
* **Health probes with eviction and deterministic re-routing**: a
  background loop polls every shard's ``/healthz``; after
  ``evict_after`` consecutive failures the shard is evicted from the
  ring and every non-terminal job routed to it is resubmitted to its
  new deterministic owner (the shared result cache makes re-running
  already-finished work a cache hit).  A shard that comes back is
  re-added to the ring.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from urllib.parse import urlsplit

from repro.harness.configs import DEFAULT_PARAMS
from repro.service.http import (
    LAST_CHUNK,
    BaseHttpServer,
    ThreadedHttpServer,
    UpstreamPool,
    end_connection,
    render_chunk,
    render_stream_head,
)
from repro.service.jobs import job_id_for, parse_submit
from repro.service.metrics import Counter, Gauge, MetricsRegistry
from repro.cluster.breaker import (
    CLOSED,
    DEFAULT_RESET_S,
    DEFAULT_THRESHOLD,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.cluster.hashring import HashRing
from repro.cluster.journal import (
    DEFAULT_COMPACT_BYTES,
    DEFAULT_FSYNC_INTERVAL_S,
    KIND_ADMIT,
    KIND_DONE,
    KIND_MEMBER,
    KIND_ROUTE,
    CoordinatorJournal,
    replay_records,
    snapshot_records,
)
from repro.cluster.ratelimit import RateLimiter

__all__ = ["ClusterCoordinator", "ThreadedCoordinator", "ShardState",
           "federate_metrics"]

#: Seconds between shard health-probe rounds.
DEFAULT_PROBE_INTERVAL_S = 1.0
#: Consecutive probe failures before a shard is evicted from the ring.
DEFAULT_EVICT_AFTER = 2
#: Default wall-clock bound on one status/result read from a shard.
DEFAULT_READ_TIMEOUT_S = 30.0
#: Default wall-clock bound on one coordinator->shard submit exchange.
DEFAULT_PROXY_TIMEOUT_S = 600.0
#: Default wait on the owning shard before a status/result read is
#: hedged to the next candidate.
DEFAULT_HEDGE_DELAY_S = 0.25
#: Terminal job states (mirrors JobState.TERMINAL without the import
#: cycle risk at JSON level).
_TERMINAL = ("done", "failed")


class ShardState:
    """Everything the coordinator knows about one worker."""

    def __init__(self, name: str, host: str, port: int,
                 breaker: CircuitBreaker):
        self.name = name
        self.host = host
        self.port = port
        self.breaker = breaker
        #: Idle keep-alive connections to the shard.
        self.pool = UpstreamPool(host, port)
        self.evicted = False
        self.draining = False
        self.consecutive_failures = 0
        self.probes_ok = 0
        self.probes_failed = 0

    @property
    def routable(self) -> bool:
        """May new work be sent here right now?"""
        return (not self.evicted and not self.draining
                and self.breaker.state != OPEN)

    def describe(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "routable": self.routable,
            "evicted": self.evicted,
            "draining": self.draining,
            "breaker": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "consecutive_probe_failures": self.consecutive_failures,
        }


class _Route:
    """Where one submitted job lives, and how to replay it."""

    __slots__ = ("body", "shard", "terminal", "tenant")

    def __init__(self, body: bytes, shard: str, terminal: bool = False,
                 tenant: str = "anonymous"):
        self.body = body          # exact upstream submit body, for replay
        self.shard = shard
        self.terminal = terminal
        self.tenant = tenant


class ClusterMetrics:
    """The coordinator's own ``repro_cluster_*`` series."""

    def __init__(self):
        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.jobs_routed = reg(Counter(
            "repro_cluster_jobs_routed_total",
            "Submissions proxied to a shard, by shard."))
        self.reroutes = reg(Counter(
            "repro_cluster_reroutes_total",
            "Orphaned jobs resubmitted to a new shard after eviction."))
        self.rate_limited = reg(Counter(
            "repro_cluster_rate_limited_total",
            "Submissions refused by per-tenant token buckets."))
        self.unroutable = reg(Counter(
            "repro_cluster_unroutable_total",
            "Submissions refused because no shard was routable."))
        self.proxy_errors = reg(Counter(
            "repro_cluster_proxy_errors_total",
            "Upstream exchanges that failed at the transport, by shard."))
        self.evictions = reg(Counter(
            "repro_cluster_evictions_total",
            "Shards evicted from the ring after failed probes, by shard."))
        self.rejoins = reg(Counter(
            "repro_cluster_rejoins_total",
            "Evicted shards re-added after passing probes, by shard."))
        self.probes = reg(Counter(
            "repro_cluster_probes_total",
            "Health probes sent, by outcome."))
        self.hedged_reads = reg(Counter(
            "repro_cluster_hedged_reads_total",
            "Status/result reads launched while another candidate was "
            "still in flight."))
        self.deadline_exceeded = reg(Counter(
            "repro_cluster_deadline_exceeded_total",
            "Requests answered 504 because the client deadline expired."))
        self.journal_records = reg(Counter(
            "repro_cluster_journal_records_total",
            "Records appended to the coordinator journal, by kind."))
        self.journal_errors = reg(Counter(
            "repro_cluster_journal_errors_total",
            "Journal appends that failed at the filesystem (served "
            "anyway; durability degraded)."))
        self.journal_resubmitted = reg(Counter(
            "repro_cluster_journal_resubmitted_total",
            "Unfinished jobs re-submitted to shards during journal "
            "recovery."))
        self.journal_bytes = reg(Gauge(
            "repro_cluster_journal_bytes",
            "Current size of the coordinator journal file."))
        self.shard_up = reg(Gauge(
            "repro_cluster_shard_up",
            "1 when the shard is routable, 0 otherwise, by shard."))
        self.breaker_state = reg(Gauge(
            "repro_cluster_breaker_state",
            "Shard breaker state: 0 closed, 1 half-open, 2 open."))
        self.shards_available = reg(Gauge(
            "repro_cluster_shards_available",
            "Shards currently routable."))

    def render(self, shards: Dict[str, ShardState]) -> str:
        code = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}
        available = 0
        for shard in shards.values():
            routable = shard.routable
            available += routable
            self.shard_up.set(1.0 if routable else 0.0, shard=shard.name)
            self.breaker_state.set(code[shard.breaker.state],
                                   shard=shard.name)
        self.shards_available.set(available)
        return self.registry.render()


def federate_metrics(pages: List[Tuple[str, str]]) -> str:
    """Merge shard Prometheus pages into one, labelling by shard.

    ``pages`` is ``[(shard_name, exposition_text), ...]``.  Every sample
    line gains a ``shard="<name>"`` label (prepended, so histogram
    ``le`` labels survive untouched); ``# HELP`` / ``# TYPE`` headers
    are emitted once per family, in first-seen order, with each shard's
    samples grouped under them — a single well-formed exposition for
    the whole fleet.
    """
    order: List[str] = []
    headers: Dict[str, List[str]] = {}
    samples: Dict[str, List[str]] = {}
    for shard_name, text in pages:
        family = None
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                family = line.split(None, 3)[2]
                if family not in headers:
                    order.append(family)
                    headers[family] = [line]
                    samples[family] = []
                continue
            if line.startswith("# TYPE "):
                name = line.split(None, 3)[2]
                if name in headers and len(headers[name]) == 1:
                    headers[name].append(line)
                continue
            if line.startswith("#") or family is None:
                continue
            lhs, _, value = line.rpartition(" ")
            if not lhs:
                continue
            if "{" in lhs:
                name, _, labels = lhs.partition("{")
                labelled = '%s{shard="%s",%s' % (name, shard_name, labels)
            else:
                labelled = '%s{shard="%s"}' % (lhs, shard_name)
            samples[family].append("%s %s" % (labelled, value))
    lines: List[str] = []
    for family in order:
        lines.extend(headers[family])
        lines.extend(samples[family])
    return "\n".join(lines) + ("\n" if lines else "")


class ClusterCoordinator(BaseHttpServer):
    """The routing front end over N shard workers."""

    def __init__(self, shards: List[Tuple[str, int]],
                 host: str = "127.0.0.1", port: int = 0,
                 probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
                 probe_timeout_s: float = 5.0,
                 evict_after: int = DEFAULT_EVICT_AFTER,
                 proxy_timeout_s: float = DEFAULT_PROXY_TIMEOUT_S,
                 read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
                 hedge_delay_s: float = DEFAULT_HEDGE_DELAY_S,
                 rate: Optional[float] = None,
                 burst: Optional[int] = None,
                 breaker_threshold: float = DEFAULT_THRESHOLD,
                 breaker_reset_s: float = DEFAULT_RESET_S,
                 journal_dir=None,
                 journal_fsync_interval_s: float = DEFAULT_FSYNC_INTERVAL_S,
                 journal_compact_bytes: int = DEFAULT_COMPACT_BYTES,
                 params=DEFAULT_PARAMS):
        super().__init__(host=host, port=port)
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self.params = params
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.evict_after = max(1, evict_after)
        self.proxy_timeout_s = proxy_timeout_s
        self.read_timeout_s = read_timeout_s
        self.hedge_delay_s = hedge_delay_s
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self.metrics = ClusterMetrics()
        self.shards: Dict[str, ShardState] = {}
        for index, (shard_host, shard_port) in enumerate(shards):
            name = "shard%d" % index
            self.shards[name] = ShardState(
                name, shard_host, int(shard_port),
                CircuitBreaker(threshold=breaker_threshold,
                               reset_timeout_s=breaker_reset_s))
        self.ring = HashRing(self.shards)
        self.routes: Dict[str, _Route] = {}
        self.journal: Optional[CoordinatorJournal] = None
        if journal_dir is not None:
            self.journal = CoordinatorJournal(
                journal_dir,
                fsync_interval_s=journal_fsync_interval_s,
                compact_bytes=journal_compact_bytes)
        self.recovered_jobs = 0
        self._recovery_queue: List[Tuple[str, bytes, str]] = []
        self._member_events: Dict[str, str] = {}
        self._probe_task: Optional[asyncio.Task] = None
        self._recovery_task: Optional[asyncio.Task] = None

    # --- lifecycle ----------------------------------------------------------

    async def on_start(self) -> None:
        if self.journal is not None:
            self._recover()
            self.journal.open()
        for shard in self.shards.values():
            shard.pool.open()
        self._probe_task = asyncio.get_running_loop().create_task(
            self._probe_loop())
        if self._recovery_queue:
            self._recovery_task = asyncio.get_running_loop().create_task(
                self._resubmit_recovered())

    async def on_stop(self) -> None:
        for task in (self._recovery_task, self._probe_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._recovery_task = self._probe_task = None
        for shard in self.shards.values():
            await shard.pool.close()
        if self.journal is not None:
            self.journal.close()

    # --- journaling ---------------------------------------------------------

    def _journal_append(self, record: dict) -> None:
        """Append one record, absorbing filesystem failures.

        A dead journal device degrades durability, never availability:
        the append error is counted and surfaced through ``/healthz``
        while the cluster keeps serving.
        """
        if self.journal is None:
            return
        try:
            self.journal.append(record)
            self.journal.maybe_compact(self._snapshot_records)
        except OSError:
            self.metrics.journal_errors.inc()
            return
        self.metrics.journal_records.inc(kind=record["kind"])
        self.metrics.journal_bytes.set(self.journal.size_bytes)

    def _snapshot_records(self) -> List[dict]:
        """Minimal record stream rebuilding current state (compaction)."""
        jobs = {
            job_id: {"body": route.body, "shard": route.shard,
                     "tenant": route.tenant, "terminal": route.terminal}
            for job_id, route in self.routes.items()
        }
        return snapshot_records(jobs, dict(self._member_events))

    def _recover(self) -> None:
        """Replay the journal into the routed-job table (before open)."""
        assert self.journal is not None
        state = replay_records(self.journal.replay())
        for job_id, info in state.jobs.items():
            if info["shard"] is not None and info["shard"] in self.shards:
                self.routes[job_id] = _Route(
                    info["body"], info["shard"],
                    terminal=info["terminal"], tenant=info["tenant"])
        self._member_events = dict(state.membership)
        self._recovery_queue = [
            (job_id, state.jobs[job_id]["body"],
             state.jobs[job_id]["tenant"])
            for job_id in state.unfinished
        ]
        self.recovered_jobs = len(state.jobs)

    async def _resubmit_recovered(self) -> None:
        """Re-drive every journaled-but-unfinished job after a restart.

        Runs as a background task so the listener binds immediately
        (pollers get their recorded routes or a synthetic ``queued``
        meanwhile).  One probe round first, so routing sees live
        shards.  Over-submission is safe: content-addressed IDs mean a
        finished job is a shared-cache hit on its shard and a running
        one coalesces onto the in-flight duplicate.
        """
        try:
            await self.probe_once()
        except Exception:
            pass
        queue, self._recovery_queue = self._recovery_queue, []
        for job_id, body, tenant in queue:
            try:
                name, status, _, data = await self._route_submit(
                    job_id, body, tenant=tenant)
            except asyncio.CancelledError:
                raise
            except Exception:
                continue
            if name is not None and 200 <= status < 300:
                self.metrics.journal_resubmitted.inc()
                self._note_terminal_from(self._stamp_shard(data, name),
                                         job_id)

    # --- deadlines ----------------------------------------------------------

    @staticmethod
    def _deadline_at(headers: Dict[str, str]) -> Optional[float]:
        """Absolute monotonic deadline from a client ``X-Deadline``
        header carrying the remaining budget in seconds."""
        raw = headers.get("x-deadline")
        if not raw:
            return None
        try:
            budget = float(raw)
        except ValueError:
            return None
        return time.monotonic() + max(0.0, budget)

    @staticmethod
    def _bounded(timeout: float, deadline_at: Optional[float]) -> float:
        """Cap an upstream timeout by the client's remaining budget."""
        if deadline_at is None:
            return timeout
        return max(0.0, min(timeout, deadline_at - time.monotonic()))

    def _deadline_headers(self, deadline_at: Optional[float]
                          ) -> Optional[Dict[str, str]]:
        """Propagate the remaining budget upstream."""
        if deadline_at is None:
            return None
        return {"X-Deadline":
                "%g" % max(0.0, deadline_at - time.monotonic())}

    def _respond_deadline(self, writer: asyncio.StreamWriter) -> None:
        self.metrics.deadline_exceeded.inc()
        self._respond(writer, 504,
                      {"error": "request deadline exceeded before an "
                                "upstream shard answered"})

    # --- upstream plumbing --------------------------------------------------

    async def _exchange(self, shard: ShardState, method: str, path: str,
                        body: Optional[bytes] = None,
                        timeout: Optional[float] = None,
                        headers: Optional[Dict[str, str]] = None):
        """One breaker-fed upstream exchange on the shard's pool.

        Transport failures count against the shard's breaker and
        re-raise; HTTP-level responses (any status) count as breaker
        successes — the shard answered, however unhappily.
        """
        try:
            status, response_headers, data = await shard.pool.fetch(
                method, path, body=body, headers=headers,
                timeout=timeout if timeout is not None
                else self.proxy_timeout_s)
        except (OSError, asyncio.TimeoutError):
            self._upstream_failed(shard)
            raise
        shard.breaker.record_success()
        return status, response_headers, data

    def _upstream_failed(self, shard: ShardState) -> None:
        """Count one transport failure against ``shard``."""
        shard.breaker.record_failure()
        self.metrics.proxy_errors.inc(shard=shard.name)

    # --- routing ------------------------------------------------------------

    def _unroutable_names(self) -> FrozenSet[str]:
        return frozenset(name for name, shard in self.shards.items()
                         if not shard.routable)

    async def _route_submit(self, job_id: str, body: bytes,
                            tenant: str = "anonymous",
                            deadline_at: Optional[float] = None
                            ) -> Tuple[Optional[str], int, Dict[str, str],
                                       bytes]:
        """Send a submit body to the job's shard, walking the ring past
        unroutable/failed shards; returns (shard_name, status, headers,
        payload), with shard_name None when nothing was reachable."""
        attempted: set = set()
        while True:
            timeout = self._bounded(self.proxy_timeout_s, deadline_at)
            if deadline_at is not None and timeout <= 0:
                return None, 0, {}, b""
            exclude = frozenset(self._unroutable_names() | attempted)
            name = self.ring.lookup(job_id, exclude=exclude)
            if name is None:
                return None, 0, {}, b""
            shard = self.shards[name]
            try:
                status, headers, data = await self._exchange(
                    shard, "POST", "/jobs", body=body, timeout=timeout,
                    headers=self._deadline_headers(deadline_at))
            except (OSError, asyncio.TimeoutError):
                attempted.add(name)
                continue
            if status == 503:
                # Draining or refusing: honest refusal, not a fault —
                # walk to the next deterministic owner.
                shard.draining = True
                attempted.add(name)
                continue
            if 200 <= status < 300:
                self.metrics.jobs_routed.inc(shard=name)
                self.routes[job_id] = _Route(body, name, tenant=tenant)
                self._journal_append({"kind": KIND_ROUTE, "job": job_id,
                                      "shard": name})
            return name, status, headers, data

    # --- HTTP routes --------------------------------------------------------

    async def _route(self, method: str, target: str,
                     headers: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"

        if path == "/healthz" and method == "GET":
            self._respond(writer, 200, self.health())
        elif path == "/metrics" and method == "GET":
            text = await self.federated_metrics()
            self._respond(writer, 200, text,
                          content_type="text/plain; version=0.0.4")
        elif path == "/jobs" and method == "POST":
            await self._submit(headers, body, writer)
        elif path.startswith("/jobs/") and method == "GET":
            await self._job_route(path, url.query, headers, writer)
        else:
            self._respond(writer, 404, {"error": "no route %s %s"
                                        % (method, path)})

    def health(self) -> dict:
        payload = {
            "status": "ok" if any(s.routable for s in self.shards.values())
            else "degraded",
            "role": "coordinator",
            "shards": {name: shard.describe()
                       for name, shard in self.shards.items()},
            "ring_nodes": list(self.ring.nodes),
            "jobs_routed": len(self.routes),
            "rate_limited": self.limiter.rejections,
        }
        if self.journal is not None:
            payload["journal"] = {
                "path": str(self.journal.path),
                "bytes": self.journal.size_bytes,
                "records_appended": self.journal.records_appended,
                "compactions": self.journal.compactions,
                "recovered_jobs": self.recovered_jobs,
                "recovery_pending": len(self._recovery_queue),
            }
        return payload

    async def _submit(self, headers: Dict[str, str], body: bytes,
                      writer: asyncio.StreamWriter) -> None:
        try:
            spec, client, priority = parse_submit(headers, body)
        except ValueError as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        deadline_at = self._deadline_at(headers)

        retry_after = self.limiter.try_acquire(client)
        if retry_after is not None:
            self.metrics.rate_limited.inc()
            self._respond_retry_after(
                writer, 429, "tenant %r over its submission rate" % client,
                retry_after)
            return

        job_id = job_id_for(spec, self.params)
        upstream_body = json.dumps({"spec": spec.to_dict(), "client": client,
                                    "priority": priority}).encode()
        # Journal the admission before any shard is touched: a crash
        # from here on re-drives the job on restart.
        self._journal_append({"kind": KIND_ADMIT, "job": job_id,
                              "body": upstream_body.decode("latin-1"),
                              "tenant": client})
        name, status, _, data = await self._route_submit(
            job_id, upstream_body, tenant=client, deadline_at=deadline_at)
        if name is None:
            if deadline_at is not None \
                    and deadline_at - time.monotonic() <= 0:
                self._respond_deadline(writer)
                return
            self.metrics.unroutable.inc()
            self._respond_retry_after(
                writer, 429, "no routable shard (all evicted, draining or "
                "circuit-open)", self.probe_interval_s * self.evict_after)
            return
        payload = self._stamp_shard(data, name)
        if 200 <= status < 300:
            self._note_terminal_from(payload, job_id)
        self._respond(writer, status, payload)

    def _stamp_shard(self, data: bytes, shard_name: str):
        """Add ``"shard"`` to a JSON payload (pass bytes through if not
        JSON)."""
        try:
            payload = json.loads(data.decode())
        except (ValueError, UnicodeDecodeError):
            return data
        if isinstance(payload, dict):
            payload["shard"] = shard_name
        return payload

    def _note_terminal_from(self, payload, job_id: str) -> None:
        if isinstance(payload, dict) and payload.get("state") in _TERMINAL:
            route = self.routes.get(job_id)
            if route is not None and not route.terminal:
                route.terminal = True
                # The body exists only for replay; a finished job will
                # never be replayed, so stop carrying (and journaling)
                # its bytes.
                route.body = b""
                self._journal_append({"kind": KIND_DONE, "job": job_id})

    async def _job_route(self, path: str, query: str,
                         headers: Dict[str, str],
                         writer: asyncio.StreamWriter) -> None:
        parts = path.split("/")  # ["", "jobs", <id>, (tail)]
        job_id = parts[2] if len(parts) > 2 else ""
        tail = parts[3] if len(parts) > 3 else ""
        if tail not in ("", "result", "events"):
            self._respond(writer, 405, {"error": "no route GET %s" % path})
            return
        upstream_path = "/jobs/%s" % job_id + ("/" + tail if tail else "")
        if query:
            upstream_path += "?" + query

        route = self.routes.get(job_id)
        candidates: List[str] = []
        if route is not None and route.shard in self.shards:
            candidates.append(route.shard)
        placed = self.ring.lookup(job_id)
        for name in ([placed] if placed else []) + sorted(self.shards):
            if name not in candidates:
                candidates.append(name)

        if tail == "events":
            await self._stream_proxy(candidates, upstream_path, writer,
                                     job_id, request_headers=headers)
            return

        deadline_at = self._deadline_at(headers)
        timeout = self._bounded(self.read_timeout_s, deadline_at)
        if deadline_at is not None and timeout <= 0:
            self._respond_deadline(writer)
            return
        answer = await self._hedged_read(
            candidates, upstream_path, timeout,
            headers=self._deadline_headers(deadline_at))
        if answer is not None and answer[1] != 404:
            name, status, up_headers, data = answer
            payload = self._stamp_shard(data, name)
            if tail == "":
                self._note_terminal_from(payload, job_id)
            content_type = up_headers.get("content-type",
                                          "application/json")
            if isinstance(payload, (dict, list)):
                self._respond(writer, status, payload)
            else:
                self._respond(writer, status, data,
                              content_type=content_type)
            return
        if route is not None and not route.terminal:
            # The owning shard is unreachable but the job is known and
            # will be re-routed by the probe loop: keep pollers polling.
            self._respond(writer, 200, {"id": job_id, "state": "queued",
                                        "rerouting": True,
                                        "shard": route.shard})
            return
        if answer is not None:  # every shard that answered said 404
            self._respond(writer, 404, {"error": "unknown job %r" % job_id})
            return
        if deadline_at is not None and deadline_at - time.monotonic() <= 0:
            self._respond_deadline(writer)
            return
        self._respond(writer, 502, {"error": "no shard could answer for "
                                             "job %r" % job_id})

    async def _hedged_read(self, candidates: List[str], path: str,
                           timeout: float,
                           headers: Optional[Dict[str, str]] = None
                           ) -> Optional[Tuple[str, int, Dict[str, str],
                                               bytes]]:
        """Race a GET across candidates, staggered by ``hedge_delay_s``.

        The first candidate (the recorded owner) is asked immediately;
        every ``hedge_delay_s`` without an answer, the next candidate
        is asked *concurrently* — a black-holed owner costs one read
        timeout in total, not one per candidate.  The first response
        that is neither a transport failure nor a 404 wins and the
        rest are cancelled.  Returns the last 404 when every answering
        shard denied knowing the job, and None when nothing answered.
        """
        names = [name for name in candidates
                 if not self.shards[name].evicted]
        pending: Dict[asyncio.Task, str] = {}
        last_404: Optional[Tuple[str, int, Dict[str, str], bytes]] = None
        index = 0

        def _consume(task: asyncio.Task) -> None:
            if not task.cancelled():
                task.exception()

        try:
            while index < len(names) or pending:
                if index < len(names):
                    shard = self.shards[names[index]]
                    if pending:
                        self.metrics.hedged_reads.inc()
                    task = asyncio.ensure_future(self._exchange(
                        shard, "GET", path, timeout=timeout,
                        headers=headers))
                    pending[task] = names[index]
                    index += 1
                wait_timeout = (self.hedge_delay_s
                                if index < len(names) else None)
                done, _ = await asyncio.wait(
                    set(pending), timeout=wait_timeout,
                    return_when=asyncio.FIRST_COMPLETED)
                for task in done:
                    name = pending.pop(task)
                    try:
                        status, up_headers, data = task.result()
                    except (OSError, asyncio.TimeoutError):
                        continue
                    if status == 404:
                        last_404 = (name, status, up_headers, data)
                        continue
                    return name, status, up_headers, data
            return last_404
        finally:
            for task in pending:
                task.cancel()
                task.add_done_callback(_consume)

    async def _stream_proxy(self, candidates: List[str], path: str,
                            writer: asyncio.StreamWriter,
                            job_id: str,
                            request_headers: Optional[Dict[str, str]] = None
                            ) -> None:
        """Relay an upstream event stream to the client, chunk by chunk.

        The stream runs on a connection from the shard's pool, which
        goes back to the pool after the stream's last chunk.  A transport
        fault before the client got a head moves on to the next
        candidate; one after it (a cut chunk) ends the client's
        connection as well, so the client sees the cut and resumes.  A
        client's ``Last-Event-ID`` resumption header is forwarded so a
        reconnecting watcher picks up exactly where its dropped stream
        left off, on whichever shard answers.  A non-stream answer (a
        404 for an unknown job) is passed on as it is.
        """
        forward = None
        if request_headers and "last-event-id" in request_headers:
            forward = {"Last-Event-ID": request_headers["last-event-id"]}
        for name in candidates:
            shard = self.shards[name]
            if shard.evicted:
                continue
            try:
                response = await asyncio.wait_for(
                    shard.pool.request("GET", path, headers=forward),
                    self.read_timeout_s)
            except (OSError, asyncio.TimeoutError):
                self._upstream_failed(shard)
                continue
            try:
                if response.status != 200 or not response.chunked:
                    try:
                        data = await response.read()
                    except OSError:
                        self._upstream_failed(shard)
                        continue
                    shard.breaker.record_success()
                    self._respond(writer, response.status, data,
                                  content_type=response.headers.get(
                                      "content-type", "application/json"))
                    return
                writer.write(render_stream_head(
                    response.headers.get("content-type",
                                         "text/event-stream"),
                    {"Cache-Control": "no-cache"}))
                while True:
                    try:
                        piece = await response.next_chunk()
                    except OSError:
                        self._upstream_failed(shard)
                        end_connection(writer)
                        return
                    if piece is None:
                        break
                    writer.write(render_chunk(piece))
                    await writer.drain()
                writer.write(LAST_CHUNK)
                shard.breaker.record_success()
                return
            finally:
                response.release()
        self._respond(writer, 502, {"error": "no shard could stream "
                                             "events for %r" % job_id})

    # --- metrics federation -------------------------------------------------

    async def federated_metrics(self) -> str:
        names = [name for name, shard in self.shards.items()
                 if not shard.evicted]

        async def fetch(name: str) -> Tuple[str, str]:
            shard = self.shards[name]
            try:
                status, _, data = await self._exchange(
                    shard, "GET", "/metrics", timeout=self.probe_timeout_s)
            except (OSError, asyncio.TimeoutError):
                return name, ""
            if status != 200:
                return name, ""
            return name, data.decode(errors="replace")

        pages = list(await asyncio.gather(*(fetch(name) for name in names)))
        federated = federate_metrics([page for page in pages if page[1]])
        return federated + self.metrics.render(self.shards)

    # --- health probes, eviction, re-routing --------------------------------

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval_s)
            try:
                await self.probe_once()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A probe round must never kill the loop; individual
                # failures are already accounted per shard.
                pass

    async def probe_once(self) -> None:
        """One probe round over every shard (public for tests)."""
        for shard in list(self.shards.values()):
            await self._probe_shard(shard)

    async def _probe_shard(self, shard: ShardState) -> None:
        ok = False
        draining = False
        try:
            status, _, data = await shard.pool.fetch(
                "GET", "/healthz", timeout=self.probe_timeout_s)
            if status == 200:
                ok = True
                try:
                    draining = bool(json.loads(data.decode())
                                    .get("draining", False))
                except (ValueError, UnicodeDecodeError):
                    pass
        except (OSError, asyncio.TimeoutError):
            ok = False
        shard.draining = draining
        if ok:
            self.metrics.probes.inc(outcome="ok")
            shard.probes_ok += 1
            shard.consecutive_failures = 0
            shard.breaker.record_success()
            if shard.evicted and not draining:
                self._rejoin(shard)
        else:
            self.metrics.probes.inc(outcome="failed")
            shard.probes_failed += 1
            shard.consecutive_failures += 1
            shard.breaker.record_failure()
            if (not shard.evicted
                    and shard.consecutive_failures >= self.evict_after):
                await self._evict(shard)

    async def _evict(self, shard: ShardState) -> None:
        """Drop a dead shard from the ring and re-route its orphans."""
        shard.evicted = True
        shard.breaker.trip()
        await shard.pool.close()
        self.ring.remove(shard.name)
        self.metrics.evictions.inc(shard=shard.name)
        self._member_events[shard.name] = "evict"
        self._journal_append({"kind": KIND_MEMBER, "shard": shard.name,
                              "event": "evict"})
        await self._reroute_orphans(shard.name)

    def _rejoin(self, shard: ShardState) -> None:
        shard.evicted = False
        shard.pool.open()
        shard.consecutive_failures = 0
        self.ring.add(shard.name)
        self.metrics.rejoins.inc(shard=shard.name)
        self._member_events[shard.name] = "rejoin"
        self._journal_append({"kind": KIND_MEMBER, "shard": shard.name,
                              "event": "rejoin"})

    async def _reroute_orphans(self, dead_shard: str) -> None:
        """Resubmit every non-terminal job routed to ``dead_shard``.

        The ring (minus the dead shard) names each orphan's new owner
        deterministically.  Jobs that already finished there are not
        lost either: results were persisted to the shared result cache
        as each group completed, so resubmission is a cache hit on the
        new shard.
        """
        orphans = [(job_id, route) for job_id, route in self.routes.items()
                   if route.shard == dead_shard and not route.terminal]
        for job_id, route in orphans:
            name, status, _, data = await self._route_submit(
                job_id, route.body, tenant=route.tenant)
            if name is not None and 200 <= status < 300:
                self.metrics.reroutes.inc()
                self._note_terminal_from(self._stamp_shard(data, name),
                                         job_id)


class ThreadedCoordinator(ThreadedHttpServer):
    """Run a :class:`ClusterCoordinator` on a background thread (tests,
    benchmarks, the ``repro-cluster`` CLI)."""

    thread_name = "repro-coordinator"

    def _build(self) -> ClusterCoordinator:
        return ClusterCoordinator(**self._kwargs)

    @property
    def coordinator(self) -> ClusterCoordinator:
        assert self.server is not None
        return self.server
