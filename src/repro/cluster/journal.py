"""Write-ahead journal for the cluster coordinator.

PR 3 proved worker processes survive arbitrary kills and PR 7 proved
shard kills re-route deterministically, but the coordinator itself kept
its shard registry, routed-job table and stored submit bodies only in
memory: a coordinator crash forgot every in-flight job.  This module is
the durable half of the fix — an append-only, CRC-framed record log
(the same magic-plus-CRC-32 framing discipline as the ``RPK1`` integrity
frame on :class:`~repro.harness.result_cache.PickleStore` entries, one
frame per record instead of per file) that the coordinator writes at
every state transition and replays on restart:

* ``admit``  — a submission was accepted: job ID, exact upstream submit
  body, tenant;
* ``route``  — the job landed on a shard;
* ``done``   — the job reached a terminal state (its body is no longer
  needed for replay);
* ``member`` — a shard was evicted from or rejoined the ring.

Recovery replays the log in order, rebuilding the routed-job table;
the coordinator then re-probes its shards and re-submits every job that
never reached a terminal record.  This is safe to over-do: job IDs are
content-addressed and every shard shares one result cache, so replaying
a job that actually finished is a cache hit and replaying one that is
still running coalesces onto the in-flight duplicate — exactly-once is
preserved by construction, not by careful bookkeeping.

Durability knobs (see ``envutil.describe_env``):

* ``REPRO_JOURNAL_FSYNC_INTERVAL`` — seconds between fsyncs.  ``0``
  fsyncs every append (maximum durability, one ``fsync`` per record);
  larger values batch appends between syncs, trading the tail of the
  log on power loss for throughput.  A torn or half-written tail is
  detected by the per-record CRC frame on replay and truncated away —
  exactly the crash-consistency discipline the EDE paper's undo log
  applies to NVM lines.
* ``REPRO_JOURNAL_COMPACT_BYTES`` — size trigger for compaction: when
  the live log exceeds this, the owner supplies a snapshot of live
  records and the journal atomically rewrites itself (temp file +
  ``fsync`` + ``os.replace``), dropping terminal jobs' bodies and
  superseded membership flips.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

from repro.harness.envutil import knob

__all__ = ["CoordinatorJournal", "JournalRecord", "RecoveredState",
           "replay_records"]

#: Per-record frame: magic, CRC-32 of the payload, payload length.
_RECORD_HEADER = struct.Struct("<4sII")
_RECORD_MAGIC = b"RPJ1"

#: Record kinds the coordinator writes.
KIND_ADMIT = "admit"
KIND_ROUTE = "route"
KIND_DONE = "done"
KIND_MEMBER = "member"
KINDS = (KIND_ADMIT, KIND_ROUTE, KIND_DONE, KIND_MEMBER)


class JournalRecord(dict):
    """One journal record: a JSON object with at least a ``kind``."""

    @property
    def kind(self) -> str:
        return self["kind"]


def _frame(payload: bytes) -> bytes:
    return _RECORD_HEADER.pack(_RECORD_MAGIC,
                               zlib.crc32(payload) & 0xFFFFFFFF,
                               len(payload)) + payload


class CoordinatorJournal:
    """Append-only CRC-framed record log with fsync batching.

    One file per coordinator (``coordinator.journal`` under the journal
    directory).  Appends are written and flushed immediately; ``fsync``
    is batched by ``fsync_interval_s``.  Replay stops at the first
    damaged record — torn tail from a crash mid-append, a flipped bit —
    and truncates the file back to the last intact record, so one crash
    can never poison the next recovery.
    """

    filename = "coordinator.journal"

    def __init__(self, directory: os.PathLike,
                 fsync_interval_s: Optional[float] = None,
                 compact_bytes: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.directory = Path(directory)
        self.path = self.directory / self.filename
        self.fsync_interval_s = (fsync_interval_s
                                 if fsync_interval_s is not None
                                 else knob("REPRO_JOURNAL_FSYNC_INTERVAL"))
        self.compact_bytes = (compact_bytes if compact_bytes is not None
                              else knob("REPRO_JOURNAL_COMPACT_BYTES"))
        self._clock = clock
        self._handle = None
        self._last_fsync = 0.0
        self._fsync_pending = False
        self.records_appended = 0
        self.compactions = 0
        self.replay_truncated = 0

    # --- lifecycle ----------------------------------------------------------

    def open(self) -> "CoordinatorJournal":
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        return self

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CoordinatorJournal":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # --- writing ------------------------------------------------------------

    def append(self, record: Dict) -> None:
        """Frame and append one record; fsync per the batching policy."""
        assert self._handle is not None, "journal not open"
        payload = json.dumps(record, sort_keys=True).encode()
        self._handle.write(_frame(payload))
        self._handle.flush()
        self.records_appended += 1
        self._fsync_pending = True
        now = self._clock()
        if (self.fsync_interval_s <= 0
                or now - self._last_fsync >= self.fsync_interval_s):
            self.sync(now=now)

    def sync(self, now: Optional[float] = None) -> None:
        """Force any batched appends to stable storage."""
        if self._handle is None or not self._fsync_pending:
            return
        os.fsync(self._handle.fileno())
        self._fsync_pending = False
        self._last_fsync = now if now is not None else self._clock()

    # --- replay -------------------------------------------------------------

    def replay(self) -> List[JournalRecord]:
        """Read every intact record, truncating a damaged tail away.

        Must be called before :meth:`open` appends anything new (the
        coordinator recovers first, then resumes journaling).
        """
        try:
            blob = self.path.read_bytes()
        except OSError:
            return []
        records: List[JournalRecord] = []
        offset = 0
        good_end = 0
        while offset + _RECORD_HEADER.size <= len(blob):
            magic, crc, length = _RECORD_HEADER.unpack_from(blob, offset)
            start = offset + _RECORD_HEADER.size
            end = start + length
            if magic != _RECORD_MAGIC or end > len(blob):
                break
            payload = blob[start:end]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                break
            try:
                record = json.loads(payload.decode())
            except (ValueError, UnicodeDecodeError):
                break
            if not isinstance(record, dict) or "kind" not in record:
                break
            records.append(JournalRecord(record))
            offset = end
            good_end = end
        if good_end < len(blob):
            # Torn or corrupt tail: truncate back to the last intact
            # record so the damage cannot survive into the next crash.
            self.replay_truncated = len(blob) - good_end
            with open(self.path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
        return records

    # --- compaction ---------------------------------------------------------

    def maybe_compact(self, snapshot: Callable[[], Iterable[Dict]]) -> bool:
        """Compact when the log has outgrown ``compact_bytes``.

        ``snapshot`` supplies the minimal record stream that rebuilds
        the owner's current state (called only when compaction actually
        triggers).  The rewrite is atomic: temp file, ``fsync``,
        ``os.replace``, directory ``fsync`` — a crash at any point
        leaves either the old log or the new one, never a mix.
        """
        if self.size_bytes <= self.compact_bytes:
            return False
        self.compact(snapshot())
        return True

    def compact(self, records: Iterable[Dict]) -> None:
        assert self._handle is not None, "journal not open"
        self.sync()
        tmp_path = self.path.with_suffix(".compact")
        with open(tmp_path, "wb") as handle:
            for record in records:
                payload = json.dumps(record, sort_keys=True).encode()
                handle.write(_frame(payload))
            handle.flush()
            os.fsync(handle.fileno())
        self._handle.close()
        os.replace(tmp_path, self.path)
        dir_fd = os.open(str(self.directory), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._handle = open(self.path, "ab")
        self._fsync_pending = False
        self.compactions += 1


class RecoveredState:
    """The coordinator-facing view of a replayed journal."""

    def __init__(self):
        #: job_id -> {"body": bytes, "shard": Optional[str],
        #:            "tenant": str, "terminal": bool}
        self.jobs: Dict[str, Dict] = {}
        #: shard name -> last journaled membership event.
        self.membership: Dict[str, str] = {}
        self.records = 0

    @property
    def unfinished(self) -> List[str]:
        """Job IDs admitted but never journaled terminal, in admission
        order (dict preserves insertion)."""
        return [job_id for job_id, info in self.jobs.items()
                if not info["terminal"] and info["body"]]


def replay_records(records: Iterable[Dict]) -> RecoveredState:
    """Fold a record stream into the table the coordinator rebuilds."""
    state = RecoveredState()
    for record in records:
        state.records += 1
        kind = record.get("kind")
        if kind == KIND_ADMIT:
            state.jobs[record["job"]] = {
                "body": record.get("body", "").encode("latin-1"),
                "shard": None,
                "tenant": record.get("tenant", "anonymous"),
                "terminal": False,
            }
        elif kind == KIND_ROUTE:
            info = state.jobs.setdefault(record["job"], {
                "body": b"", "shard": None, "tenant": "anonymous",
                "terminal": False})
            info["shard"] = record.get("shard")
        elif kind == KIND_DONE:
            info = state.jobs.setdefault(record["job"], {
                "body": b"", "shard": None, "tenant": "anonymous",
                "terminal": False})
            info["terminal"] = True
            # A finished job's body is only needed for replay; drop it
            # so compaction and recovery stay lean.
            info["body"] = b""
        elif kind == KIND_MEMBER:
            state.membership[record["shard"]] = record.get("event", "")
    return state


def snapshot_records(jobs: Dict[str, Dict],
                     membership: Dict[str, str]) -> List[Dict]:
    """The minimal record stream that rebuilds ``jobs``/``membership``.

    Non-terminal jobs keep their admit body (they may still need
    replay); terminal jobs compact to a route + done pair so status
    lookups can still follow the recorded shard.
    """
    records: List[Dict] = []
    for job_id, info in jobs.items():
        if not info["terminal"]:
            records.append({"kind": KIND_ADMIT, "job": job_id,
                            "body": info["body"].decode("latin-1"),
                            "tenant": info["tenant"]})
        if info["shard"] is not None:
            records.append({"kind": KIND_ROUTE, "job": job_id,
                            "shard": info["shard"]})
        if info["terminal"]:
            records.append({"kind": KIND_DONE, "job": job_id})
    for shard, event in membership.items():
        records.append({"kind": KIND_MEMBER, "shard": shard,
                        "event": event})
    return records
