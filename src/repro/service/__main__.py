"""Command-line driver: ``python -m repro.service`` (also ``repro-serve``).

Subcommands::

    serve    run the HTTP service (port 0 by default; --port-file for
             scripts that need the ephemeral port)
    submit   submit a (workloads x configs) simulation matrix,
             analysis jobs with --analyze, or fence-autotuner
             jobs with --optimize
    status   print one job's status JSON
    wait     block until jobs finish; print their result summaries
    metrics  dump the server's Prometheus metrics page

``--env`` (global) prints every ``REPRO_*`` knob with its parser and
default, then exits.

Examples::

    python -m repro.service serve --port 8080 --workers 4
    python -m repro.service submit update swap --configs B,WB --wait \
        --port 8080
    python -m repro.service metrics --port 8080
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.harness.cliutil import exit_on_bad_env
from repro.harness.envutil import knob, render_env_table
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.queue import DEFAULT_MAX_DEPTH, BoundedJobQueue
from repro.service.server import ServiceServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service: serve EDE experiments "
        "over HTTP with batching, single-flight dedup and backpressure.",
    )
    parser.add_argument(
        "--env", action="store_true",
        help="print every REPRO_* environment knob and exit")
    sub = parser.add_subparsers(dest="command")

    serve = sub.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default=None,
                       help="bind address (default: $REPRO_SERVICE_HOST "
                       "or 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port; 0 = ephemeral (default: "
                       "$REPRO_SERVICE_PORT or 0)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port to this file "
                       "(for scripts using an ephemeral port)")
    serve.add_argument("--workers", type=int, default=None,
                       help="simulation worker count "
                       "(default: $REPRO_PARALLEL or CPU count)")
    serve.add_argument("--queue-depth", type=int, default=DEFAULT_MAX_DEPTH,
                       help="admission-control queue bound (default: "
                       "%(default)s)")
    serve.add_argument("--cache-dir", default=None,
                       help="result/trace cache directory "
                       "(default: $REPRO_CACHE_DIR)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the persistent result cache")

    for name, help_text in (
            ("submit", "submit simulation or analysis jobs"),
            ("status", "print job status JSON"),
            ("wait", "wait for jobs and print result summaries"),
            ("metrics", "dump the Prometheus metrics page")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--port", type=int, required=True,
                         help="port of a running service")
        cmd.add_argument("--host", default="127.0.0.1")
        if name == "submit":
            cmd.add_argument("workloads", nargs="+",
                             help="workload names (Table II)")
            cmd.add_argument("--configs", default="B,SU,IQ,WB,U",
                             help="comma-separated Table III names "
                             "(default: all five)")
            cmd.add_argument("--analyze", action="store_true",
                             help="submit static-analysis jobs instead "
                             "(--configs then names fence modes)")
            cmd.add_argument("--optimize", action="store_true",
                             help="submit fence-autotuner jobs instead "
                             "(--configs names Table III configurations)")
            cmd.add_argument("--conservative", action="store_true",
                             help="optimize the overfenced '+cons' build "
                             "(optimize jobs only)")
            cmd.add_argument("--budget", type=int, default=0,
                             help="autotuner trial budget; 0 = the "
                             "autotuner's default of 64 "
                             "(optimize jobs only)")
            cmd.add_argument("--ops", type=int, default=5,
                             help="operations per transaction")
            cmd.add_argument("--txns", type=int, default=3,
                             help="transaction count")
            cmd.add_argument("--seed", type=int, default=2021)
            cmd.add_argument("--cores", type=int, default=1,
                             help="simulated core count (multi-core "
                             "workloads; simulate jobs only)")
            cmd.add_argument("--wait", action="store_true",
                             help="block until every job finishes")
        elif name in ("status", "wait"):
            cmd.add_argument("job_ids", nargs="+")
    return parser


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    host = args.host if args.host is not None else \
        knob("REPRO_SERVICE_HOST")
    port = args.port if args.port is not None else \
        knob("REPRO_SERVICE_PORT")
    server = ServiceServer(
        host=host, port=port,
        queue=BoundedJobQueue(max_depth=args.queue_depth),
        max_workers=args.workers,
        cache=False if args.no_cache else None,
        cache_dir=args.cache_dir,
    )

    async def main() -> None:
        # SIGTERM/SIGINT trigger a graceful drain: refuse new
        # admissions with 503, finish every admitted job (each group's
        # results are flushed to the result cache as it completes),
        # then exit.  A second signal is not special-cased: the drain
        # window is bounded by drain_and_stop's timeout.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await server.start()
        print("repro.service listening on http://%s:%d"
              % (server.host, server.port), flush=True)
        if args.port_file:
            with open(args.port_file, "w") as handle:
                handle.write("%d\n" % server.port)
        await stop.wait()
        print("draining: refusing new jobs, finishing admitted work",
              file=sys.stderr, flush=True)
        drained = await server.drain_and_stop()
        if not drained:
            print("drain window expired with work still in flight",
                  file=sys.stderr, flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _client(args):
    return ServiceClient(port=args.port, host=args.host)


def _cmd_submit(args) -> int:
    client = _client(args)
    if args.analyze and args.optimize:
        raise SystemExit("--analyze and --optimize are mutually exclusive")
    names = [n.strip() for n in args.configs.split(",") if n.strip()]
    if args.optimize:
        kind = "optimize"
    elif args.analyze:
        kind = "analyze"
    else:
        kind = "simulate"
    statuses = []
    for workload in args.workloads:
        for name in names:
            extra = {}
            if kind == "optimize":
                extra = {"conservative": args.conservative,
                         "budget": args.budget}
            if kind == "simulate" and args.cores != 1:
                extra = {"cores": args.cores}
            spec = JobSpec(kind=kind, workload=workload, config=name,
                           ops_per_txn=args.ops, txns=args.txns,
                           seed=args.seed, **extra)
            status = client.submit_retrying(spec)
            statuses.append(status)
            print("%-9s %s" % (status["disposition"], status["id"]))
    if not args.wait:
        return 0
    failed = 0
    for status in client.wait_all(statuses):
        if status["state"] != "done":
            failed += 1
            print("FAILED %s: %s" % (status["id"], status.get("error")))
            continue
        result = client.result(status["id"])
        if "report" in result:
            report = result["report"] or {}
            if "status" in report and "ordering" in report:
                print("done %s (optimize: %s, %d removed)"
                      % (status["id"], report["status"],
                         report["ordering"]["removed"]))
            else:
                print("done %s (analysis)" % status["id"])
        else:
            print("done %-8s %-4s cycles=%d ipc=%.3f %s"
                  % (result["workload"], result["config"], result["cycles"],
                     result["ipc"], result["verdict"]))
    return 1 if failed else 0


def _cmd_status(args) -> int:
    client = _client(args)
    for job_id in args.job_ids:
        print(json.dumps(client.status(job_id), indent=2))
    return 0


def _cmd_wait(args) -> int:
    client = _client(args)
    failed = 0
    for job_id in args.job_ids:
        status = client.wait(job_id)
        print(json.dumps(status, indent=2))
        failed += status["state"] != "done"
    return 1 if failed else 0


def _cmd_metrics(args) -> int:
    print(_client(args).metrics(), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    exit_on_bad_env("repro.service")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.env:
        print(render_env_table())
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    handler = {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "wait": _cmd_wait,
        "metrics": _cmd_metrics,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
