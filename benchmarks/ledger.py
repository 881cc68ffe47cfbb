"""The one reader and writer of the committed ``BENCH_*.json`` ledgers.

A ledger holds a ``description`` of its metrics and an append-only list
of ``entries``, one per recorded bench session, each an :class:`Entry`.
Older entries keep ``revision`` and ``host`` null where they never
recorded them.  Benches time work with :func:`timed_rounds`; a headline
number comes from the best round, and the ``<name>_timing`` metric
beside it keeps the spread.  Benches record headline metrics on the
session-scoped ``bench_ledger`` fixture (``conftest.py``), which appends
one entry per ledger at the end of the session, only when the
``REPRO_BENCH_RECORD`` flag is set.  A ledger that does not parse raises
a ``ValueError`` naming the file and is left as it was.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.common import bench_scale
from repro.harness.envutil import knob

#: The committed ledgers live at the repository root.
LEDGER_DIR = Path(__file__).resolve().parent.parent


@dataclasses.dataclass(frozen=True)
class Timing:
    """Wall seconds over ``n`` timed rounds: best and quartiles."""

    n: int
    best: float
    q1: float
    median: float
    q3: float

    @classmethod
    def of(cls, samples) -> "Timing":
        ordered = sorted(samples)
        quartiles = (ordered * 3 if len(ordered) == 1 else
                     statistics.quantiles(ordered, n=4, method="inclusive"))
        return cls(len(ordered), *(round(value, 6)
                                   for value in [ordered[0]] + quartiles))


def timed_rounds(fn, rounds: int = 3) -> Tuple[Timing, object]:
    """Call ``fn`` ``rounds`` times; its :class:`Timing` and last result."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return Timing.of(samples), result


@dataclasses.dataclass(frozen=True)
class Host:
    platform: Optional[str]
    python: Optional[str]
    cpus: Optional[int]


@dataclasses.dataclass(frozen=True)
class Entry:
    """One bench session; ``revision`` is ``git describe --always --dirty``."""

    date: str
    revision: Optional[str]
    host: Optional[Host]
    scale: Optional[dict]
    metrics: dict
    note: Optional[str] = None


def _parse_entry(item: dict) -> Entry:
    entry = Entry(**item)
    if not isinstance(entry.date, str) or not isinstance(entry.metrics, dict):
        raise ValueError("an entry needs a date string and a metrics object")
    if entry.scale is not None and set(entry.scale) != {"ops_per_txn", "txns"}:
        raise ValueError("scale must hold ops_per_txn and txns")
    for name, value in entry.metrics.items():
        if name.endswith("_timing"):
            Timing(**value)
    return dataclasses.replace(
        entry, host=None if entry.host is None else Host(**entry.host))


def load(path: Path) -> Tuple[str, List[Entry]]:
    """The description and entries of the ledger at ``path``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if set(doc) != {"description", "entries"}:
            raise ValueError("the top level must be {description, entries}")
        return doc["description"], [_parse_entry(item)
                                    for item in doc["entries"]]
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError("%s: not a ledger: %s" % (path, exc)) from exc


def append(path: Path, entry: Entry) -> None:
    """Append ``entry`` to the ledger at ``path`` via a temp file and
    ``os.replace``, so a failure leaves the old bytes in place.  The
    file keeps its mode."""
    description, entries = load(path)
    doc = {"description": description,
           "entries": [dataclasses.asdict(old) for old in entries + [entry]]}
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            out.write(json.dumps(doc, indent=2) + "\n")
        shutil.copymode(path, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _revision() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=LEDGER_DIR,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


class Session:
    """The headline metrics of one bench session, per ledger name."""

    def __init__(self, directory: Path = LEDGER_DIR):
        self.directory = directory
        self.pending: Dict[str, dict] = {}

    def record(self, ledger: str, **metrics) -> None:
        """Stash metrics for this session's ``BENCH_<ledger>.json`` entry."""
        self.pending.setdefault(ledger, {}).update(metrics)

    def flush(self) -> None:
        """Append one entry per ledger when ``REPRO_BENCH_RECORD`` is set."""
        pending, self.pending = self.pending, {}
        if not knob("REPRO_BENCH_RECORD"):
            return
        scale, revision = bench_scale(), _revision()
        host = Host(platform.platform(), "%s %s" % (
            platform.python_implementation(), platform.python_version()),
            os.cpu_count())
        for ledger, metrics in sorted(pending.items()):
            append(self.directory / ("BENCH_%s.json" % ledger), Entry(
                time.strftime("%Y-%m-%d"), revision, host,
                {"ops_per_txn": scale.ops_per_txn, "txns": scale.txns},
                metrics))
