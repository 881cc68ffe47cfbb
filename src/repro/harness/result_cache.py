"""Persistent, content-addressed cache of simulation results.

A full experiment matrix is ~30 independent simulations, and every bench
process used to recompute all of them from scratch.  Simulations here are
deterministic functions of (workload, configuration, scale, architectural
parameters, simulator source), so their results can be cached on disk and
reused across processes: repeated bench and experiment invocations skip
simulation entirely.

Keys are SHA-256 digests over a canonical JSON rendering of every input,
plus a fingerprint of the simulator's own source tree — editing any file
under ``src/repro`` invalidates all entries, so a stale cache can never
mask a code change.  Entries are pickled :class:`~repro.harness.runner.
RunResult` objects written atomically (temp file + ``os.replace``); a
corrupt or unreadable entry is treated as a miss and discarded.

The on-disk mechanics (atomic writes, corrupt-entry discard, hit/miss
accounting) live in :class:`PickleStore`, which the analysis-report
store (:class:`ReportCache`) shares.  Every entry is wrapped in an
integrity frame — a magic tag plus a CRC-32 of the serialized payload —
so *any* byte-level damage (truncation, bit flips, partial writes from a
crashed pre-atomic writer) is detected deterministically on load and
self-heals into a miss, instead of relying on the unpickler happening to
choke.  A pickle has no checksum of its own: a flipped bit inside an
integer payload would otherwise deserialize "successfully" into silently
wrong results.  Loads also type-check the unpickled object, so a valid
pickle of the wrong type (a key collision or tampering) is likewise
discarded rather than returned.

Environment variables:

* ``REPRO_RESULT_CACHE`` — ``0``/``false`` disables the cache,
  ``1``/``true`` (default) enables it; anything else is rejected loudly
  (see :mod:`repro.harness.envutil`).
* ``REPRO_CACHE_DIR`` — override the default ``.benchmarks/cache``
  location (resolved against the current working directory).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import tempfile
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple

from repro.chaos import chaos_point
from repro.harness.envutil import knob

#: Memoized source fingerprint (the tree does not change mid-process).
_SOURCE_FINGERPRINT: Optional[str] = None

#: Canonical JSON of frozen dataclass instances by object identity,
#: least recently used first: ``id(obj) -> (obj, text)``.  Holding the
#: object keeps its id from being reused.  The memo is never keyed by
#: value: ``Scale(10, 5)`` and ``Scale(10.0, 5)`` are equal and hash
#: equal, yet render different keys.
_RENDERED: "OrderedDict[int, Tuple[object, str]]" = OrderedDict()
_RENDERED_MAX = 64
_RENDERED_LOCK = threading.Lock()

#: Integrity-frame magic: bumping it invalidates every on-disk entry.
_FRAME_MAGIC = b"RPK1"
_FRAME_HEADER = struct.Struct("<4sI")  # magic, CRC-32 of the payload

#: Total bytes of framing prepended to every entry.
FRAME_HEADER_BYTES = _FRAME_HEADER.size


class CorruptEntryError(ValueError):
    """A cache entry failed its integrity frame or type check."""


def frame_payload(payload: bytes) -> bytes:
    """Wrap serialized bytes in the magic + CRC-32 integrity frame."""
    return _FRAME_HEADER.pack(_FRAME_MAGIC,
                              zlib.crc32(payload) & 0xFFFFFFFF) + payload


def unframe_payload(blob: bytes) -> bytes:
    """Verify and strip the integrity frame; raise on any damage."""
    if len(blob) < FRAME_HEADER_BYTES:
        raise CorruptEntryError("entry shorter than the integrity header")
    magic, crc = _FRAME_HEADER.unpack_from(blob)
    if magic != _FRAME_MAGIC:
        raise CorruptEntryError("bad entry magic %r" % magic)
    payload = blob[FRAME_HEADER_BYTES:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptEntryError("entry checksum mismatch")
    return payload


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.benchmarks/cache``."""
    return Path(knob("REPRO_CACHE_DIR"))


def source_fingerprint() -> str:
    """Digest of every ``.py`` file under the installed ``repro`` package.

    Any source edit — simulator, workloads, harness — changes the
    fingerprint and therefore every cache key derived from it.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


def _canonical(obj) -> str:
    """Stable JSON rendering of nested dataclasses / containers.

    A frozen dataclass instance (the architectural params above all,
    ~120 us to render) is rendered once per object and then served from
    :data:`_RENDERED`.
    """
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        return json.dumps(obj, sort_keys=True, default=repr)
    frozen = obj.__dataclass_params__.frozen
    if frozen:
        with _RENDERED_LOCK:
            hit = _RENDERED.get(id(obj))
            if hit is not None:
                _RENDERED.move_to_end(id(obj))
                return hit[1]
    text = json.dumps(dataclasses.asdict(obj), sort_keys=True, default=repr)
    if frozen:
        with _RENDERED_LOCK:
            _RENDERED[id(obj)] = (obj, text)
            while len(_RENDERED) > _RENDERED_MAX:
                _RENDERED.popitem(last=False)
    return text


def canonical_key(*parts) -> str:
    """SHA-256 over a NUL-joined canonical rendering of ``parts``.

    Strings pass through untouched; everything else goes through the
    canonical JSON rendering, so dataclasses (configs, scales, params)
    key stably across processes.
    """
    rendered = [
        part if isinstance(part, str) else _canonical(part) for part in parts
    ]
    return hashlib.sha256("\0".join(rendered).encode()).hexdigest()


def stable_hash64(text: str) -> int:
    """A process-stable 64-bit hash of ``text`` (SHA-256 prefix).

    Python's builtin ``hash`` is salted per process, so anything that
    must agree across processes — the cluster's consistent-hash ring
    placing content-addressed cache keys on shards, most prominently —
    hashes through this instead.
    """
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class PickleStore:
    """Content-addressed on-disk store of pickled objects.

    One file per key, written atomically (temp file + ``os.replace``) so a
    crashed writer can never leave a half-written entry under a live key;
    an unreadable entry — truncated write, pickle incompatibility, format
    change — is deleted and reported as a miss, so corruption is
    self-healing.  Subclasses choose the directory, the key schema, and
    (via ``_serialize`` / ``_deserialize``) the byte format.
    """

    #: File extension for entries; also the glob used by clear()/len().
    suffix = ".pkl"

    #: Label used by chaos injection (``store`` point) and diagnostics.
    kind = "pickle"

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / (key + self.suffix)

    # --- byte format (overridable) -----------------------------------------

    def _serialize(self, value) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def _deserialize(self, payload: bytes):
        return pickle.loads(payload)

    def _expected_type(self) -> Optional[type]:
        """Type a deserialized entry must be, or None to skip the check.

        Resolved lazily (not a class attribute) so subclasses can name
        types whose modules would create import cycles at class-creation
        time.
        """
        return None

    # --- access -------------------------------------------------------------

    def load(self, key: str):
        """Return the cached value for ``key``, or None on a miss.

        Corrupt entries — truncated writes, bit flips (caught by the
        CRC-32 frame), pickle incompatibilities, wrong-type payloads —
        are deleted and reported as misses.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            value = self._deserialize(unframe_payload(blob))
            expected = self._expected_type()
            if expected is not None and not isinstance(value, expected):
                raise CorruptEntryError(
                    "entry holds %s, expected %s"
                    % (type(value).__name__, expected.__name__))
        except Exception:
            # Unreadable entry: drop it so it cannot keep failing.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, key: str, value) -> None:
        """Atomically persist ``value`` under ``key``."""
        blob = frame_payload(self._serialize(value))
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        chaos_point("store", "%s:%s" % (self.kind, key),
                    path=self._path(key))

    def clear(self) -> int:
        """Delete every entry; return how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*" + self.suffix):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*" + self.suffix))


class ResultCache(PickleStore):
    """On-disk result store for :class:`~repro.harness.runner.RunResult`.

    Args:
        root: Cache directory; defaults to ``$REPRO_CACHE_DIR`` or
            ``.benchmarks/cache``.
    """

    kind = "result"

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(root if root is not None else default_cache_dir())

    def _expected_type(self) -> Optional[type]:
        from repro.harness.runner import RunResult

        return RunResult

    @staticmethod
    def key(workload: str, config, scale, params,
            fingerprint: Optional[str] = None) -> str:
        """Content-addressed key for one (workload, config, scale, params)
        simulation under the current source tree; the service's job IDs
        use it too (:func:`repro.service.jobs.result_cache_key`).
        """
        if fingerprint is None:
            fingerprint = source_fingerprint()
        return canonical_key(fingerprint, workload, config, scale, params)


def resolve_store(cache: Optional[bool] = None,
                  cache_dir: Optional[os.PathLike] = None,
                  ) -> Optional[ResultCache]:
    """The result store of one matrix run or service, or None when off.

    ``cache=None`` follows ``REPRO_RESULT_CACHE`` (on by default),
    ``cache=False`` turns the store off, and ``cache_dir`` moves it away
    from the default directory.
    """
    if cache is None:
        cache = knob("REPRO_RESULT_CACHE")
    return ResultCache(cache_dir) if cache else None


class ReportCache(PickleStore):
    """On-disk store for machine-readable analysis/optimization reports.

    Entries are the JSON-ready ``dict`` renderings the ``analyze`` and
    ``optimize`` service jobs return (not live report objects), so they
    deserialize without importing analysis code.  Shares the results
    directory but uses its own suffix — one ``glob`` cannot match both,
    so ``clear()`` on one cache never eats the other's entries.
    """

    suffix = ".report"
    kind = "report"

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(root if root is not None else default_cache_dir())

    def _expected_type(self) -> Optional[type]:
        return dict
