"""Job model for the simulation service.

A :class:`JobSpec` names one unit of servable work (a simulation, a
static analysis or an autotune) at an explicit scale.  Specs are frozen
and content-addressed: :func:`job_id_for` uses the persistent result
cache's key scheme, so the same work from two clients is one job, and
a job whose result is on disk is served without simulating.
:class:`Job` is the server-side lifecycle record (``queued -> running
-> done | failed``, progress events for the SSE stream, latency).  A
finished simulate job's JSON result carries the
:func:`~repro.harness.digest.run_digest` the golden corpus pins.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.harness.configs import CONFIG_BY_NAME, DEFAULT_PARAMS, Configuration
from repro.harness.digest import run_digest
from repro.harness.result_cache import (
    ResultCache,
    canonical_key,
    source_fingerprint,
)
from repro.workloads import base as workload_base

#: Job kinds the service executes.
KIND_SIMULATE = "simulate"
KIND_ANALYZE = "analyze"
KIND_OPTIMIZE = "optimize"
KINDS = (KIND_SIMULATE, KIND_ANALYZE, KIND_OPTIMIZE)


class JobState:
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    #: States a job can never leave.
    TERMINAL = (DONE, FAILED)


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One unit of servable work, content-addressed and hashable.

    ``config`` is a Table III configuration name (B, SU, IQ, WB, U) for
    ``simulate`` and ``optimize`` jobs and a fence mode (dsb, dmb_st,
    ede, none, optionally ``+cons``) for ``analyze`` jobs.  The scale is
    spelled out field by field so a spec serializes to/from JSON without
    pickling.  ``conservative`` and ``budget`` parameterize ``optimize``
    jobs only (rebuild with the overfenced ``+cons`` emission; cap the
    static oracle's trial count — 0 means the autotuner's
    ``DEFAULT_BUDGET``).
    """

    kind: str
    workload: str
    config: str
    ops_per_txn: int = workload_base.TEST_SCALE.ops_per_txn
    txns: int = workload_base.TEST_SCALE.txns
    seed: int = workload_base.TEST_SCALE.seed
    conservative: bool = False
    budget: int = 0
    #: Simulated core count (multi-core workloads; simulate jobs only).
    cores: int = 1

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first invalid field."""
        if self.kind not in KINDS:
            raise ValueError(
                "unknown job kind %r (expected one of %s)"
                % (self.kind, ", ".join(KINDS)))
        known = workload_base.workload_names()
        if self.workload not in known:
            raise ValueError(
                "unknown workload %r (have: %s)"
                % (self.workload, ", ".join(known)))
        if self.kind in (KIND_SIMULATE, KIND_OPTIMIZE):
            if self.config not in CONFIG_BY_NAME:
                raise ValueError(
                    "unknown configuration %r (expected one of %s)"
                    % (self.config, ", ".join(CONFIG_BY_NAME)))
        else:
            from repro.nvmfw.codegen import validate_mode

            try:
                validate_mode(self.config)
            except ValueError as exc:
                raise ValueError(str(exc)) from None
        if self.kind != KIND_OPTIMIZE and (self.conservative or self.budget):
            raise ValueError(
                "conservative/budget apply to optimize jobs only, not %r"
                % self.kind)
        if self.budget < 0:
            raise ValueError("budget must be >= 0, got %d" % self.budget)
        if self.ops_per_txn < 1 or self.txns < 1:
            raise ValueError(
                "scale must be positive, got %d ops/txn x %d txns"
                % (self.ops_per_txn, self.txns))
        if self.cores != 1 and self.kind != KIND_SIMULATE:
            raise ValueError(
                "cores applies to simulate jobs only, not %r" % self.kind)
        workload_base.ensure_core_count(self.workload, self.cores)

    @property
    def scale(self) -> workload_base.Scale:
        return workload_base.Scale(
            ops_per_txn=self.ops_per_txn, txns=self.txns, seed=self.seed,
            cores=self.cores)

    @property
    def configuration(self) -> Configuration:
        """The Table III configuration (simulate/optimize jobs only)."""
        if self.kind == KIND_ANALYZE:
            raise ValueError(
                "%s jobs have a fence mode, not a configuration" % self.kind)
        return CONFIG_BY_NAME[self.config]

    def to_dict(self) -> dict:
        """The fields in declaration order, as ``dataclasses.asdict``
        gives them (every field is a scalar, so nothing to deep-copy)."""
        return {"kind": self.kind, "workload": self.workload,
                "config": self.config, "ops_per_txn": self.ops_per_txn,
                "txns": self.txns, "seed": self.seed,
                "conservative": self.conservative, "budget": self.budget,
                "cores": self.cores}

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build and validate a spec from decoded JSON (client input)."""
        if not isinstance(data, dict):
            raise ValueError("job spec must be a JSON object, got %s"
                             % type(data).__name__)
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError("unknown job spec field(s): %s"
                             % ", ".join(unknown))
        missing = [name for name in ("kind", "workload", "config")
                   if name not in data]
        if missing:
            raise ValueError("job spec missing field(s): %s"
                             % ", ".join(missing))
        try:
            spec = cls(**data)
        except TypeError as exc:
            raise ValueError("bad job spec: %s" % exc) from None
        for name in ("ops_per_txn", "txns", "seed", "budget", "cores"):
            value = getattr(spec, name)
            # JSON true is a Python int, but a different job ID and cache
            # key for the same simulation as 1.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError("%s must be an integer" % name)
        if not isinstance(spec.conservative, bool):
            raise ValueError("conservative must be a boolean")
        spec.validate()
        return spec


def parse_submit(headers: Dict[str, str], body: bytes
                 ) -> Tuple[JobSpec, str, int]:
    """Parse a ``POST /jobs`` request into ``(spec, client, priority)``.

    The body is ``{"spec": {...}, "client": ..., "priority": N}`` or a
    bare spec; the client defaults to the ``X-Client`` header, then
    ``"anonymous"``, and the priority to 0.  Anything malformed raises
    ``ValueError`` — the server's 400 — including a priority that is
    not a JSON integer (``null``, ``[1]``, ``"3"``, ``true``).
    """
    data = json.loads(body.decode() or "{}")
    if not isinstance(data, dict):
        raise ValueError("request body must be a JSON object")
    spec = JobSpec.from_dict(data.get("spec", data))
    client = str(data.get("client") or headers.get("x-client", "anonymous"))
    priority = data.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ValueError("priority must be an integer, got %s"
                         % json.dumps(priority))
    return spec, client, priority


def result_cache_key(spec: JobSpec, params=DEFAULT_PARAMS) -> str:
    """The :class:`~repro.harness.result_cache.ResultCache` key this
    simulate job's result lives under, so the service and the batch
    engines share one cache population."""
    return ResultCache.key(spec.workload, spec.configuration, spec.scale,
                           params)


def optimize_cache_key(spec: JobSpec, params=DEFAULT_PARAMS) -> str:
    """The :class:`~repro.harness.result_cache.ReportCache` key an
    optimize job's report lives under.

    The key covers everything that determines the optimized program —
    the source fingerprint (the emitters and the search), the workload,
    the configuration, the scale, the conservative flag, the trial
    budget and the architectural parameters — so the cluster coordinator
    routes and single-flights optimize jobs by program fingerprint with
    zero coordinator changes.  The budget is keyed as the autotuner
    resolves it, so ``budget=0`` and an explicit default budget are one
    job.
    """
    from repro.analysis.autotune import DEFAULT_BUDGET

    return canonical_key(source_fingerprint(), KIND_OPTIMIZE, spec.workload,
                         spec.configuration, spec.scale,
                         "cons" if spec.conservative else "base",
                         "budget=%d" % (spec.budget or DEFAULT_BUDGET),
                         params)


def job_id_for(spec: JobSpec, params=DEFAULT_PARAMS) -> str:
    """Content-addressed job ID.

    Simulate jobs reuse the result-cache key verbatim (prefixed for
    readability); analysis and optimize jobs hash the same ingredient
    list under their own kind tag.  Identical specs — from any client,
    any process — always map to the same ID, which is what makes
    single-flight coalescing and instant cache completion possible.
    """
    if spec.kind == KIND_SIMULATE:
        return "sim-" + result_cache_key(spec, params)
    if spec.kind == KIND_OPTIMIZE:
        return "opt-" + optimize_cache_key(spec, params)
    return "ana-" + canonical_key(source_fingerprint(), spec.kind,
                                  spec.workload, spec.config, spec.scale)


class Job:
    """Server-side lifecycle record of one submitted spec.

    Created and mutated only on the event-loop thread; worker threads
    hand results back through ``loop.call_soon_threadsafe``.
    """

    def __init__(self, spec: JobSpec, job_id: str, client: str = "anonymous",
                 priority: int = 0):
        self.spec = spec
        self.id = job_id
        self.client = client
        self.priority = priority
        self.state = JobState.QUEUED
        self.created_s = time.monotonic()
        self.finished_s: Optional[float] = None
        self.error: Optional[str] = None
        self.result = None
        self._digest: Optional[str] = None
        self.from_cache = False
        #: How many duplicate submissions were coalesced onto this job.
        self.coalesced = 0
        #: Progress events for the SSE stream (replayed to late joiners).
        self.events: List[Dict[str, object]] = []
        self.done_event = asyncio.Event()
        #: Broadcast: replaced (and the old one set) on every new event,
        #: so any number of SSE streamers can await the next change.
        self._changed = asyncio.Event()

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_s is None:
            return None
        return self.finished_s - self.created_s

    @property
    def digest(self) -> str:
        """:func:`~repro.harness.digest.run_digest` of a done simulate
        job's result, computed on first use."""
        if self._digest is None:
            self._digest = run_digest(self.result)
        return self._digest

    def transition(self, state: str, error: Optional[str] = None) -> None:
        """Move to ``state``, record the SSE event, wake waiters."""
        self.state = state
        if state in JobState.TERMINAL:
            self.finished_s = time.monotonic()
            self.error = error
        self.add_event(state, error=error)
        if state in JobState.TERMINAL:
            self.done_event.set()

    def add_event(self, event: str, **extra) -> None:
        payload: Dict[str, object] = {"event": event, "job": self.id}
        payload.update({k: v for k, v in extra.items() if v is not None})
        self.events.append(payload)
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()

    async def next_change(self) -> None:
        """Block until another event is appended (SSE streamers)."""
        await self._changed.wait()

    def to_status(self) -> dict:
        """JSON rendering for ``GET /jobs/<id>``."""
        status = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "client": self.client,
            "priority": self.priority,
            "coalesced": self.coalesced,
            "from_cache": self.from_cache,
        }
        if self.error is not None:
            status["error"] = self.error
        if self.latency_s is not None:
            status["latency_s"] = round(self.latency_s, 6)
        return status
