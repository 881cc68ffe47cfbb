"""The one registry of ``REPRO_*`` environment knobs.

Every knob any ``repro`` module reads is declared exactly once below, as
an :class:`EnvKnob` carrying its name, kind, typed default, lower bound
and description.  Code reads a knob only through :func:`knob`, which
parses the current value from that declaration; an explicit argument
wins at the call site (``arg if arg is not None else knob(...)``).

Parsing is strict: unset or empty means the default, flags accept only
``0``/``1``/``true``/``false``, numbers must parse and respect the lower
bound, and anything else raises ``ValueError`` naming the variable and
the offending value.  :func:`check_env` parses every knob at once and
reports every bad one in a single error; the CLI mains and
:meth:`~repro.harness.supervisor.SupervisorConfig.from_env` call it, so
a junk value fails loudly even where an explicit argument overrides it.

Values are read at call time, never snapshotted: the chaos harness sets
``REPRO_CHAOS`` at runtime for pool workers and tests monkeypatch knobs.
JSON knobs are returned as raw strings and parsed by their owners.
:func:`describe_env` and :func:`render_env_table` (the ``--env`` flag on
the CLIs) are derived from the same declarations, and a test keeps them
in sync with the names the source mentions.

Stdlib-only at import time: the benchmark times package imports.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Tuple

#: Accepted spellings for flag knobs (case-insensitive).
_TRUE = ("1", "true")
_FALSE = ("0", "false")


@dataclasses.dataclass(frozen=True)
class EnvKnob:
    """One environment knob: how it parses, its default, what it does."""

    name: str
    kind: str          # flag -> bool | int | float | str | json -> raw str
    default: object    # typed; None means "unset"
    description: str
    minimum: Optional[float] = None
    choices: Tuple[str, ...] = ()


_KNOBS = (
    EnvKnob("REPRO_PARALLEL", "int", None,
            "Worker-pool size for matrix runs (unset = one per CPU); "
            "0/1 force the in-process serial path.", minimum=0),
    EnvKnob("REPRO_RESULT_CACHE", "flag", True,
            "Persistent content-addressed result cache on/off."),
    EnvKnob("REPRO_TRACE_CACHE", "flag", True,
            "Persistent compiled-trace cache on/off."),
    EnvKnob("REPRO_CACHE_DIR", "str", os.path.join(".benchmarks", "cache"),
            "Directory for result and trace caches."),
    EnvKnob("REPRO_TIMEOUT", "float", 600.0,
            "Per-group wall-clock timeout in seconds (0 disables).",
            minimum=0),
    EnvKnob("REPRO_RETRIES", "int", 2,
            "Failed attempts tolerated per group beyond the first.",
            minimum=0),
    EnvKnob("REPRO_BACKOFF", "float", 0.1,
            "Base retry backoff in seconds, doubled per failure.",
            minimum=0),
    EnvKnob("REPRO_PROFILE", "flag", False,
            "Dump per-phase cProfile stats for build/load/simulate."),
    EnvKnob("REPRO_PROFILE_DIR", "str",
            os.path.join(".benchmarks", "profile"),
            "Directory for cProfile dumps."),
    EnvKnob("REPRO_BENCH_OPS", "int", 25,
            "Benchmark scale: operations per transaction.", minimum=1),
    EnvKnob("REPRO_BENCH_TXNS", "int", 20,
            "Benchmark scale: transaction count.", minimum=1),
    EnvKnob("REPRO_FUSION", "flag", True,
            "No effect: the functional machine always runs its codegen'd "
            "handlers.  Kept registered only so the e2e benchmark's "
            "inherited-knob check can set it; delete with the next "
            "change to that benchmark."),
    EnvKnob("REPRO_CORES", "int", 2,
            "Core count for the multi-core hazard-pointer experiment "
            "(capped by the modeled maximum).", minimum=1),
    EnvKnob("REPRO_INTERLEAVE", "str", "round_robin",
            "Multi-core build interleaver policy.",
            choices=("round_robin", "weighted")),
    EnvKnob("REPRO_INTERLEAVE_SEED", "int", 0,
            "Multi-core interleaver seed override (0 derives it from "
            "the workload scale seed).", minimum=0),
    EnvKnob("REPRO_COHERENCE", "flag", True,
            "MESI-lite invalidation coherence model in multi-core runs "
            "on/off."),
    EnvKnob("REPRO_STATIC_CHECK", "flag", False,
            "Gate every interpreted workload build through the static "
            "analyzer."),
    EnvKnob("REPRO_AUTOTUNE_BUDGET", "int", 64,
            "Fence-autotuner trial budget: max candidate programs the "
            "static oracle evaluates per target.", minimum=1),
    EnvKnob("REPRO_AUTOTUNE_VALIDATE", "flag", True,
            "Fence-autotuner dynamic oracle (simulation, crash sweep, "
            "result digest) on/off."),
    EnvKnob("REPRO_CHAOS", "json", None,
            "Serialized fault-injection plan, inline JSON or a path "
            "(set by the chaos harness, not by hand)."),
    EnvKnob("REPRO_SERVICE_HOST", "str", "127.0.0.1",
            "Bind address for `python -m repro.service serve`."),
    EnvKnob("REPRO_SERVICE_PORT", "int", 0,
            "Bind port for the service and coordinator (0 = ephemeral).",
            minimum=0),
    EnvKnob("REPRO_SERVICE_QUEUE_DEPTH", "int", 64,
            "Admission-control bound on queued service jobs.", minimum=1),
    EnvKnob("REPRO_DRAIN_TIMEOUT", "float", 60.0,
            "Seconds a SIGTERM'd server may spend finishing admitted "
            "work before exiting anyway.", minimum=0),
    EnvKnob("REPRO_CLUSTER_SHARDS", "int", 2,
            "Worker-process count for `repro-cluster up` and the local "
            "cluster manager.", minimum=1),
    EnvKnob("REPRO_CLUSTER_PROBE_INTERVAL", "float", 1.0,
            "Seconds between the coordinator's shard health-probe "
            "rounds.", minimum=0.01),
    EnvKnob("REPRO_CLUSTER_RATE", "float", 100.0,
            "Per-tenant sustained submissions/second admitted by the "
            "cluster coordinator.", minimum=0.001),
    EnvKnob("REPRO_CLUSTER_BURST", "int", 200,
            "Per-tenant burst capacity (token-bucket size) at the "
            "cluster coordinator.", minimum=1),
    EnvKnob("REPRO_BREAKER_THRESHOLD", "float", 0.5,
            "EWMA failure rate that trips a shard's circuit breaker "
            "open.", minimum=0),
    EnvKnob("REPRO_BREAKER_RESET", "float", 2.0,
            "Seconds an open circuit breaker waits before admitting "
            "half-open probes.", minimum=0),
    EnvKnob("REPRO_CLUSTER_JOURNAL_DIR", "str", None,
            "Directory for the coordinator's crash-recovery write-ahead "
            "journal (unset = journaling off)."),
    EnvKnob("REPRO_JOURNAL_FSYNC_INTERVAL", "float", 0.0,
            "Seconds between journal fsync batches (0 fsyncs every "
            "append).", minimum=0),
    EnvKnob("REPRO_JOURNAL_COMPACT_BYTES", "int", 1 << 20,
            "Journal size in bytes that triggers a compacting rewrite.",
            minimum=4096),
    EnvKnob("REPRO_NETPROXY_PLAN", "json", None,
            "Serialized network fault plan, inline JSON or a path; when "
            "set, the cluster CLI inserts a fault-injection TCP proxy "
            "before every shard."),
    EnvKnob("REPRO_REQUEST_DEADLINE", "float", 0.0,
            "Default end-to-end deadline in seconds clients send as "
            "X-Deadline (0 = none).", minimum=0),
)

_BY_NAME = {spec.name: spec for spec in _KNOBS}


def knob(name: str):
    """The current value of the registered knob ``name``, parsed.

    Unset or empty returns the declared default; a malformed or
    out-of-bounds value raises ``ValueError`` naming the variable.
    """
    spec = _BY_NAME[name]
    raw = os.environ.get(name, "")
    if raw == "":
        return spec.default
    if spec.kind == "flag":
        lowered = raw.strip().lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(
            "%s must be one of 0/1/true/false, got %r" % (name, raw))
    if spec.kind in ("str", "json"):
        if spec.choices and raw not in spec.choices:
            raise ValueError("%s must be one of %s, got %r"
                             % (name, "/".join(spec.choices), raw))
        return raw
    parse, noun = (int, "an integer") if spec.kind == "int" \
        else (float, "a number")
    try:
        value = parse(raw)
    except ValueError:
        raise ValueError(
            "%s must be %s, got %r" % (name, noun, raw)) from None
    if spec.minimum is not None and value < spec.minimum:
        raise ValueError(
            "%s must be >= %g, got %r" % (name, spec.minimum, raw))
    return value


def check_env() -> None:
    """Parse every registered knob; one ``ValueError`` names all bad ones."""
    problems = []
    for spec in _KNOBS:
        try:
            knob(spec.name)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise ValueError("invalid environment: " + "; ".join(problems))


def describe_env() -> Tuple[EnvKnob, ...]:
    """Every ``REPRO_*`` knob the codebase reads, in declaration order."""
    return _KNOBS


def _render_default(spec: EnvKnob) -> str:
    if spec.default is None:
        return "unset"
    if spec.kind == "flag":
        return "1" if spec.default else "0"
    return "%g" % spec.default if spec.kind == "float" else str(spec.default)


def _render_kind(spec: EnvKnob) -> str:
    if spec.choices:
        return "|".join(spec.choices)
    if spec.minimum is not None:
        return "%s >= %g" % (spec.kind, spec.minimum)
    return spec.kind


def render_env_table() -> str:
    """Human-readable rendering of :func:`describe_env` (``--env``)."""
    rows = [("knob", "kind", "default", "description")]
    rows += [(spec.name, _render_kind(spec), _render_default(spec),
              spec.description) for spec in _KNOBS]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    rows.insert(1, tuple("-" * w for w in widths) + ("-" * 11,))
    return "\n".join("%-*s  %-*s  %-*s  %s"
                     % (widths[0], row[0], widths[1], row[1],
                        widths[2], row[2], row[3])
                     for row in rows)
