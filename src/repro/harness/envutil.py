"""The one registry of ``REPRO_*`` environment knobs.

Every knob any ``repro`` module reads is declared exactly once below, as
an :class:`EnvKnob` carrying its name, kind, typed default, lower bound
and description.  Code reads a knob only through :func:`knob`, which
parses the current value from that declaration; an explicit argument
wins at the call site (``arg if arg is not None else knob(...)``).

Parsing is strict: unset or empty means the default, flags accept only
``0``/``1``/``true``/``false``, numbers must parse and respect the lower
bound, and anything else raises ``ValueError`` naming the variable and
the offending value.  :func:`check_env` parses every knob at once,
refuses any retired name (``_RETIRED``) that is still set, and reports
every bad one in a single error; the CLI mains and
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
    EnvKnob("REPRO_PROFILE", "flag", False,
            "Dump per-phase cProfile stats for build/load/simulate."),
    EnvKnob("REPRO_PROFILE_DIR", "str",
            os.path.join(".benchmarks", "profile"),
            "Directory for cProfile dumps."),
    EnvKnob("REPRO_BENCH_OPS", "int", 25,
            "Benchmark scale: operations per transaction.", minimum=1),
    EnvKnob("REPRO_BENCH_TXNS", "int", 20,
            "Benchmark scale: transaction count.", minimum=1),
    EnvKnob("REPRO_BENCH_RECORD", "flag", False,
            "Append each bench session's headline metrics to the "
            "committed BENCH_*.json ledgers (benchmarks/ledger.py)."),
    EnvKnob("REPRO_FUSION", "flag", True,
            "No effect: the functional machine always runs its codegen'd "
            "handlers.  Kept registered only so the e2e benchmark's "
            "inherited-knob check can set it; delete with the next "
            "change to that benchmark."),
    EnvKnob("REPRO_CHAOS", "json", None,
            "Serialized fault-injection plan, inline JSON or a path "
            "(set by the chaos harness, not by hand)."),
    EnvKnob("REPRO_SERVICE_HOST", "str", "127.0.0.1",
            "Bind address for `python -m repro.service serve`."),
    EnvKnob("REPRO_SERVICE_PORT", "int", 0,
            "Bind port for the service and coordinator (0 = ephemeral).",
            minimum=0),
    EnvKnob("REPRO_CLUSTER_RATE", "float", 100.0,
            "Per-tenant sustained submissions/second admitted by the "
            "cluster coordinator.", minimum=0.001),
    EnvKnob("REPRO_CLUSTER_BURST", "int", 200,
            "Per-tenant burst capacity (token-bucket size) at the "
            "cluster coordinator.", minimum=1),
    EnvKnob("REPRO_CLUSTER_JOURNAL_DIR", "str", None,
            "Directory for the coordinator's crash-recovery write-ahead "
            "journal (unset = journaling off)."),
    EnvKnob("REPRO_NETPROXY_PLAN", "json", None,
            "Serialized network fault plan, inline JSON or a path; when "
            "set, the cluster CLI inserts a fault-injection TCP proxy "
            "before every shard."),
)

_BY_NAME = {spec.name: spec for spec in _KNOBS}

#: Knobs that were deleted; most values are now constructor arguments
#: or CLI flags (the hazard-pointer experiment's core count is its
#: ``cores`` argument), the interleave policy is ``Scale.interleave``,
#: coherence is always modeled, and the build-time static check is
#: ``python -m repro.analysis``.  A leftover export is refused rather
#: than silently ignored.
_RETIRED = (
    "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_BACKOFF",
    "REPRO_AUTOTUNE_BUDGET", "REPRO_AUTOTUNE_VALIDATE",
    "REPRO_SERVICE_QUEUE_DEPTH", "REPRO_DRAIN_TIMEOUT",
    "REPRO_CLUSTER_SHARDS", "REPRO_CLUSTER_PROBE_INTERVAL",
    "REPRO_BREAKER_THRESHOLD", "REPRO_BREAKER_RESET",
    "REPRO_JOURNAL_FSYNC_INTERVAL", "REPRO_JOURNAL_COMPACT_BYTES",
    "REPRO_REQUEST_DEADLINE", "REPRO_SHM", "REPRO_HEDGE_DELAY",
    "REPRO_PROXY_TIMEOUT", "REPRO_INTERLEAVE", "REPRO_INTERLEAVE_SEED",
    "REPRO_COHERENCE", "REPRO_STATIC_CHECK", "REPRO_CORES",
)


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
    """Parse every registered knob and refuse every retired one that is
    set; one ``ValueError`` names all bad ones."""
    problems = ["%s is retired and no longer read; unset it" % name
                for name in _RETIRED if os.environ.get(name)]
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
