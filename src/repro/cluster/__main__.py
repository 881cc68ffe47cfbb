"""Command-line driver: ``python -m repro.cluster`` (also
``repro-cluster``).

Subcommands::

    up           spawn N shard workers plus a coordinator and serve
                 until SIGTERM/SIGINT (then drain workers and exit)
    coordinator  run only the coordinator over already-running shards
                 (how a crashed coordinator is restarted from its
                 journal: same --journal-dir, same --port)
    status       print the coordinator's /healthz JSON

The coordinator speaks the same HTTP surface as a single-node service,
so the existing tools work against it unchanged::

    repro-cluster up --shards 4 --port 8080 --journal-dir /var/lib/repro &
    python -m repro.service submit update swap --port 8080 --wait
    python -m repro.service metrics --port 8080   # federated

Chaos wiring: when ``REPRO_NETPROXY_PLAN`` is set (inline JSON or a
path; see :mod:`repro.chaos.netproxy`), a fault-injection TCP proxy is
inserted between the coordinator and every shard, so a whole cluster
run can be degraded from the environment without touching code.
``--journal-dir`` (or ``REPRO_CLUSTER_JOURNAL_DIR``) enables the
coordinator's crash-recovery write-ahead journal.

``--env`` (global) prints every ``REPRO_*`` knob with its parser and
default, then exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import List, Optional, Tuple

from repro.cluster.coordinator import (
    DEFAULT_PROBE_INTERVAL_S,
    ClusterCoordinator,
)
from repro.cluster.local import DEFAULT_SHARDS, LocalCluster
from repro.harness.cliutil import exit_on_bad_env, guard_broken_pipe
from repro.harness.envutil import knob, render_env_table
from repro.service.client import ServiceClient
from repro.service.queue import DEFAULT_MAX_DEPTH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded simulation cluster: consistent-hash routed "
        "workers behind one coordinator with federated metrics.",
    )
    parser.add_argument(
        "--env", action="store_true",
        help="print every REPRO_* environment knob and exit")
    sub = parser.add_subparsers(dest="command")

    up = sub.add_parser("up", help="run coordinator + N shard workers")
    up.add_argument("--shards", type=int, default=DEFAULT_SHARDS,
                    help="worker-process count (default: %(default)s)")
    up.add_argument("--host", default="127.0.0.1",
                    help="coordinator bind address")
    up.add_argument("--port", type=int, default=None,
                    help="coordinator bind port; 0 = ephemeral "
                    "(default: $REPRO_SERVICE_PORT or 0)")
    up.add_argument("--port-file", default=None,
                    help="write the coordinator's bound port to this file")
    up.add_argument("--workers-per-shard", type=int, default=1,
                    help="simulation pool size inside each shard "
                    "(default 1: the shards are the parallelism)")
    up.add_argument("--queue-depth", type=int, default=DEFAULT_MAX_DEPTH,
                    help="per-shard admission-control queue bound "
                    "(default: %(default)s)")
    up.add_argument("--cache-dir", default=None,
                    help="shared result/trace cache directory "
                    "(default: scratch dir, removed on exit)")
    up.add_argument("--journal-dir", default=None,
                    help="coordinator write-ahead journal directory "
                    "(default: $REPRO_CLUSTER_JOURNAL_DIR; unset = off)")

    coord = sub.add_parser(
        "coordinator",
        help="run only the coordinator over already-running shards")
    coord.add_argument("--shard", action="append", required=True,
                       metavar="HOST:PORT", dest="shard_addrs",
                       help="shard address (repeat per shard, in shard "
                       "order — the order defines ring identity)")
    coord.add_argument("--host", default="127.0.0.1",
                       help="coordinator bind address")
    coord.add_argument("--port", type=int, default=None,
                       help="coordinator bind port; 0 = ephemeral "
                       "(default: $REPRO_SERVICE_PORT or 0)")
    coord.add_argument("--port-file", default=None,
                       help="write the bound port to this file")
    coord.add_argument("--journal-dir", default=None,
                       help="write-ahead journal directory (restart with "
                       "the same directory to recover in-flight jobs)")
    coord.add_argument("--probe-interval", type=float,
                       default=DEFAULT_PROBE_INTERVAL_S,
                       help="seconds between shard health probes "
                       "(default: %(default)s)")

    status = sub.add_parser("status",
                            help="print a coordinator's /healthz JSON")
    status.add_argument("--port", type=int, required=True)
    status.add_argument("--host", default="127.0.0.1")
    return parser


def _parse_shard(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit("--shard must be HOST:PORT, got %r" % value)
    return host, int(port)


async def _start_proxies(addresses: List[Tuple[str, int]], host: str):
    """Insert a fault proxy before each shard when a plan is installed.

    Returns ``(proxied_addresses, proxies)`` — identity when no
    ``REPRO_NETPROXY_PLAN`` is set.
    """
    from repro.chaos.netproxy import FaultProxy, NetFaultPlan

    plan = NetFaultPlan.from_env()
    if plan is None:
        return addresses, []
    proxies = []
    proxied: List[Tuple[str, int]] = []
    for shard_host, shard_port in addresses:
        proxy = FaultProxy(shard_host, shard_port, plan=plan, host=host)
        await proxy.start()
        proxies.append(proxy)
        proxied.append((host, proxy.port))
    return proxied, proxies


async def _serve_coordinator(addresses, args,
                             probe_interval_s=DEFAULT_PROBE_INTERVAL_S
                             ) -> None:
    port = args.port if args.port is not None else \
        knob("REPRO_SERVICE_PORT")
    journal_dir = args.journal_dir or knob("REPRO_CLUSTER_JOURNAL_DIR")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    addresses, proxies = await _start_proxies(addresses, args.host)
    coordinator = ClusterCoordinator(
        addresses, host=args.host, port=port, journal_dir=journal_dir,
        probe_interval_s=probe_interval_s)
    await coordinator.start()
    print("repro.cluster coordinator on http://%s:%d (%d shards%s%s)"
          % (coordinator.host, coordinator.port, len(addresses),
             ", journaled" if journal_dir else "",
             ", net-chaos proxied" if proxies else ""),
          flush=True)
    for index, (host, shard_port) in enumerate(addresses):
        print("  shard%d -> http://%s:%d" % (index, host, shard_port),
              flush=True)
    if args.port_file:
        with open(args.port_file, "w") as handle:
            handle.write("%d\n" % coordinator.port)
    await stop.wait()
    print("stopping coordinator", file=sys.stderr, flush=True)
    await coordinator.stop()
    for proxy in proxies:
        await proxy.stop()


def _cmd_up(args) -> int:
    cluster = LocalCluster(
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        queue_depth=args.queue_depth,
        cache_dir=args.cache_dir,
        host=args.host,
    )
    try:
        cluster.start()
        try:
            asyncio.run(_serve_coordinator(cluster.addresses, args))
        except KeyboardInterrupt:
            pass
    finally:
        cluster.stop()
    return 0


def _cmd_coordinator(args) -> int:
    addresses = [_parse_shard(value) for value in args.shard_addrs]
    try:
        asyncio.run(_serve_coordinator(
            addresses, args, probe_interval_s=args.probe_interval))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_status(args) -> int:
    client = ServiceClient(port=args.port, host=args.host)
    print(json.dumps(client.healthz(), indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    exit_on_bad_env("repro.cluster")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.env:
        print(render_env_table())
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    handler = {"up": _cmd_up, "coordinator": _cmd_coordinator,
               "status": _cmd_status}[args.command]
    # stdout can go away mid-print (`status | head`); die quietly the
    # way coreutils do, without a traceback on the way out.
    return guard_broken_pipe(handler, args)


if __name__ == "__main__":
    sys.exit(main())
