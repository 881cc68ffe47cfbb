"""Deterministic fault injection for the cluster's network transport.

:mod:`repro.chaos.plan` injects faults *inside* processes (kills,
stalls, cache corruption); this module injects them *between* processes.
A :class:`FaultProxy` is a TCP proxy that sits on the wire between the
cluster coordinator and a shard (or between a client and the
coordinator) and misbehaves on purpose, under a seeded
:class:`NetFaultPlan` — the network analogue of a ``FaultPlan``:

* ``refuse``    — close the client connection immediately, without ever
  contacting the upstream (connection refused / dead peer);
* ``latency``   — delay the connection by ``delay_s`` plus a seeded
  uniform jitter in ``[0, jitter_s)`` (slow peer, congested link);
* ``reset``     — forward ``after_bytes`` payload bytes in ``direction``
  and then hard-abort both sides (RST mid-body);
* ``truncate``  — forward ``after_bytes`` bytes in ``direction`` and
  then close *cleanly* (a short response that looks finished — the
  nastiest case for a length-framed protocol);
* ``blackhole`` — silently discard every byte in one ``direction``
  while the other flows (a one-way partition: requests arrive,
  responses vanish).

Determinism: faults fire by **connection index** — the Nth connection
through the proxy sees the same faults in every run — and all
randomness (jitter) comes from ``random.Random`` seeded with
``(plan seed, fault index, connection index)``.  Tests assert on exact
firing counts via :meth:`FaultProxy.stats`.  HTTP connections are
keep-alive, so one proxied connection may carry many requests: a
``latency`` fault delays only its first, and ``after_bytes`` counts
bytes over the connection's whole life.  When one side closes its
direction the proxy passes the close on, as TCP does, so a pooled
connection whose server went away is seen as closed by its client.

The plan travels in ``REPRO_NETPROXY_PLAN`` (inline JSON or a path to a
JSON file), mirroring ``REPRO_CHAOS``: when the variable is set, the
``repro-cluster`` CLI inserts a proxy in front of every shard it
spawns, so an entire cluster e2e run can be degraded from the
environment without touching code.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness.envutil import knob
from repro.service.http import ThreadedHttpServer

__all__ = ["NetFaultSpec", "NetFaultPlan", "FaultProxy",
           "ThreadedFaultProxy", "ENV_VAR"]

#: Environment variable carrying the installed plan (JSON, or a path to
#: a JSON file when the value does not start with ``{``).
ENV_VAR = "REPRO_NETPROXY_PLAN"

ACTIONS = ("refuse", "latency", "reset", "truncate", "blackhole")

#: client->server / server->client, as seen by the proxied connection.
DIRECTIONS = ("c2s", "s2c")

#: Bytes moved per relay read; small enough that ``after_bytes`` budgets
#: cut within one chunk of their mark.
_CHUNK = 4096


@dataclasses.dataclass(frozen=True)
class NetFaultSpec:
    """One network fault: *from connection ``after_conns`` on, do
    ``action``, at most ``times`` times* (``times=-1``: every matching
    connection)."""

    action: str
    times: int = 1
    #: Connections to pass through untouched before this fault arms.
    after_conns: int = 0
    #: ``latency``: fixed delay before the upstream is contacted.
    delay_s: float = 0.0
    #: ``latency``: extra seeded-uniform delay in ``[0, jitter_s)``.
    jitter_s: float = 0.0
    #: ``reset``/``truncate``: payload bytes forwarded before the cut.
    after_bytes: int = 0
    #: ``reset``/``truncate``/``blackhole``: which flow is damaged.
    direction: str = "s2c"

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError("unknown network fault %r (have: %s)"
                             % (self.action, ", ".join(ACTIONS)))
        if self.direction not in DIRECTIONS:
            raise ValueError("direction must be one of %s, got %r"
                             % (", ".join(DIRECTIONS), self.direction))
        if self.times == 0 or self.times < -1:
            raise ValueError("times must be >= 1 or -1 (unlimited), "
                             "got %d" % self.times)


@dataclasses.dataclass
class NetFaultPlan:
    """An ordered set of network faults plus the jitter seed.

    Unlike :class:`~repro.chaos.plan.FaultPlan` there is no shared
    ``state_dir``: one proxy process owns the wire it degrades, so
    firing budgets are plain in-memory counters on the proxy.
    """

    faults: List[NetFaultSpec]
    seed: int = 0

    # --- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "faults": [dataclasses.asdict(spec) for spec in self.faults],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NetFaultPlan":
        data = json.loads(text)
        return cls(
            faults=[NetFaultSpec(**spec)
                    for spec in data.get("faults", ())],
            seed=data.get("seed", 0),
        )

    @classmethod
    def from_env(cls, environ=None) -> Optional["NetFaultPlan"]:
        """The installed plan, or None; ``environ`` (a mapping) stands in
        for the process environment."""
        raw = knob(ENV_VAR) if environ is None else environ.get(ENV_VAR)
        if not raw:
            return None
        if not raw.lstrip().startswith("{"):
            raw = Path(raw).read_text()
        return cls.from_json(raw)

    def install(self, environ=os.environ) -> None:
        environ[ENV_VAR] = self.to_json()

    def uninstall(self, environ=os.environ) -> None:
        environ.pop(ENV_VAR, None)

    @contextlib.contextmanager
    def installed(self, environ=os.environ):
        self.install(environ)
        try:
            yield self
        finally:
            self.uninstall(environ)


class FaultProxy:
    """A TCP relay that misbehaves per its plan (asyncio side).

    Speaks no HTTP — it moves bytes, which is exactly why it can model
    transport-layer failures the HTTP stack never emits on its own.
    ``plan`` may be swapped at runtime (tests lift latency to prove
    breaker recovery); connection indices keep counting across swaps.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 plan: Optional[NetFaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream_host = upstream_host
        self.upstream_port = int(upstream_port)
        self.plan = plan if plan is not None else NetFaultPlan(faults=[])
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.connections = 0
        self.fired: Dict[str, int] = {action: 0 for action in ACTIONS}
        self._spent: Dict[int, int] = {}
        self._conn_tasks: set = set()

    # --- lifecycle (same shape as BaseHttpServer, so the threaded
    # --- harness drives either) ---------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._accept, self.host, self._requested_port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Reap in-flight relays: a blackholed or stalled connection
        # would otherwise outlive the proxy and die with the loop.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    def stats(self) -> Dict[str, int]:
        """Connections seen and firings per action (for assertions)."""
        report = dict(self.fired)
        report["connections"] = self.connections
        return report

    # --- fault selection ----------------------------------------------------

    def _claim_faults(self, conn_index: int
                      ) -> List[Tuple[NetFaultSpec, random.Random]]:
        """Faults firing on this connection, with their seeded RNGs."""
        active: List[Tuple[NetFaultSpec, random.Random]] = []
        for index, spec in enumerate(self.plan.faults):
            if conn_index < spec.after_conns:
                continue
            spent = self._spent.get(index, 0)
            if spec.times != -1 and spent >= spec.times:
                continue
            self._spent[index] = spent + 1
            self.fired[spec.action] += 1
            rng = random.Random("%d:%d:%d"
                                % (self.plan.seed, index, conn_index))
            active.append((spec, rng))
        return active

    # --- the wire -----------------------------------------------------------

    def _accept(self, client_reader: asyncio.StreamReader,
                client_writer: asyncio.StreamWriter) -> None:
        """Hold each relay task from the moment its connection arrives,
        so :meth:`stop` reaps relays that have not started running."""
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(client_reader, client_writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(self, client_reader: asyncio.StreamReader,
                                 client_writer: asyncio.StreamWriter
                                 ) -> None:
        conn_index = self.connections
        self.connections += 1
        active = self._claim_faults(conn_index)
        try:
            await self._relay(active, client_reader, client_writer)
        except (ConnectionError, OSError):
            pass
        finally:
            await _close(client_writer)

    async def _relay(self, active, client_reader, client_writer) -> None:
        if any(spec.action == "refuse" for spec, _ in active):
            client_writer.transport.abort()
            return
        for spec, rng in active:
            if spec.action == "latency":
                delay = spec.delay_s
                if spec.jitter_s > 0:
                    delay += rng.uniform(0, spec.jitter_s)
                await asyncio.sleep(delay)

        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port)
        except OSError:
            client_writer.transport.abort()
            return

        budget: Dict[str, Optional[int]] = {"c2s": None, "s2c": None}
        cut_action: Dict[str, Optional[str]] = {"c2s": None, "s2c": None}
        drop: Dict[str, bool] = {"c2s": False, "s2c": False}
        for spec, _ in active:
            if spec.action in ("reset", "truncate"):
                budget[spec.direction] = spec.after_bytes
                cut_action[spec.direction] = spec.action
            elif spec.action == "blackhole":
                drop[spec.direction] = True

        sinks = {"c2s": upstream_writer, "s2c": client_writer}
        pipes = {
            asyncio.ensure_future(_pipe(
                client_reader, upstream_writer,
                budget["c2s"], drop["c2s"])): "c2s",
            asyncio.ensure_future(_pipe(
                upstream_reader, client_writer,
                budget["s2c"], drop["s2c"])): "s2c",
        }
        cut: Optional[str] = None
        try:
            pending = set(pipes)
            while pending and cut is None:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED)
                for task in done:
                    direction = pipes[task]
                    try:
                        outcome = task.result()
                    except (ConnectionError, OSError):
                        outcome = "eof"
                    if outcome == "cut":
                        cut = cut_action[direction] or "truncate"
                    else:
                        # Half-close: the other peer sees this end.
                        with contextlib.suppress(ConnectionError, OSError,
                                                 RuntimeError):
                            sinks[direction].write_eof()
        finally:
            for task in pipes:
                task.cancel()
            # Both sides are closed before the first await, so a relay
            # cancelled by stop() from here on leaves no socket open.
            if cut == "reset":
                # RST both sides: the peers see a mid-body abort.
                upstream_writer.transport.abort()
                client_writer.transport.abort()
            else:
                # Clean close: a truncated flow looks *finished*.
                upstream_writer.close()
                client_writer.close()
            await asyncio.gather(*pipes, return_exceptions=True)
            await _close(upstream_writer)


async def _pipe(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                budget: Optional[int], drop: bool) -> str:
    """Move bytes one way; returns ``"cut"`` when the budget ran out,
    ``"eof"`` when the source closed."""
    forwarded = 0
    while True:
        chunk = await reader.read(_CHUNK)
        if not chunk:
            return "eof"
        if drop:
            continue  # one-way partition: read and discard forever
        if budget is not None:
            remaining = budget - forwarded
            if remaining <= 0:
                return "cut"
            chunk = chunk[:remaining]
        writer.write(chunk)
        await writer.drain()
        forwarded += len(chunk)
        if budget is not None and forwarded >= budget:
            return "cut"


async def _close(writer: asyncio.StreamWriter) -> None:
    with contextlib.suppress(ConnectionError, OSError, RuntimeError):
        writer.close()
        await writer.wait_closed()


class ThreadedFaultProxy(ThreadedHttpServer):
    """Run a :class:`FaultProxy` on a background daemon thread.

    Reuses the threaded harness (the proxy exposes the same async
    ``start``/``stop``/``port`` surface as a ``BaseHttpServer``); tests
    swap plans mid-run with ``threaded.call`` so the mutation happens
    on the loop thread.
    """

    thread_name = "repro-netproxy"

    def _build(self) -> FaultProxy:
        return FaultProxy(**self._kwargs)

    @property
    def proxy(self) -> FaultProxy:
        assert self.server is not None
        return self.server

    def set_plan(self, plan: NetFaultPlan) -> None:
        """Swap the active plan (runs on the loop thread)."""
        self.call(setattr, self.proxy, "plan", plan)

    def stats(self) -> Dict[str, int]:
        return self.call(self.proxy.stats)
