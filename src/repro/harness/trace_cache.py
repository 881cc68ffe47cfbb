"""Persistent, content-addressed cache of built workload traces.

Simulation input is a :class:`~repro.nvmfw.framework.BuiltWorkload` — the
dynamic instruction trace plus the crash-consistency artifacts — and
building one means functionally executing the whole workload through the
persistent-object framework.  At experiment scale that build phase rivals
the simulation phase: six workloads x three fence modes are rebuilt from
scratch by every cold process, and each process-pool worker group used to
rebuild its own copy.

Builds are deterministic functions of (workload, fence mode, scale,
architectural parameters, simulator source), so — exactly like simulation
results (:mod:`repro.harness.result_cache`) — they can be cached on disk,
shared across processes, and safely invalidated by the source fingerprint.
Entries are zlib-compressed pickles of the full ``BuiltWorkload``, written
through the same :class:`~repro.harness.result_cache.PickleStore`
machinery (atomic temp-file + ``os.replace`` writes; corrupt entries are
discarded and rebuilt).  With a warm trace cache a matrix run performs
zero trace interpretation: workers load compact serialized traces instead
of re-executing workload programs.

Environment variables:

* ``REPRO_TRACE_CACHE`` — ``0`` disables the cache, ``1`` (default)
  enables it; anything else is rejected loudly.
* ``REPRO_CACHE_DIR`` — relocates the cache root; traces live in the
  ``traces/`` subdirectory (default ``.benchmarks/cache/traces``).
"""

from __future__ import annotations

import os
import pickle
import zlib
from pathlib import Path
from typing import Optional, Tuple

from repro.harness.envutil import knob
from repro.harness.result_cache import (
    PickleStore,
    ResultCache,
    canonical_key,
    default_cache_dir,
    source_fingerprint,
)

#: Subdirectory of the cache root holding trace entries.
TRACE_SUBDIR = "traces"

#: zlib level 1: traces are pickle-memoized and highly repetitive, so the
#: fastest level already shrinks them severalfold.
_COMPRESS_LEVEL = 1


def default_trace_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``/traces (default ``.benchmarks/cache/traces``)."""
    return default_cache_dir() / TRACE_SUBDIR


class TraceCache(PickleStore):
    """On-disk store of serialized :class:`BuiltWorkload` traces.

    Args:
        root: Cache directory; defaults to ``$REPRO_CACHE_DIR``/traces or
            ``.benchmarks/cache/traces``.
    """

    suffix = ".trace"
    kind = "trace"

    def __init__(self, root: Optional[os.PathLike] = None):
        super().__init__(root if root is not None else
                         default_trace_cache_dir())

    def _expected_type(self) -> Optional[type]:
        from repro.nvmfw.framework import BuiltWorkload

        return BuiltWorkload

    def key(self, workload: str, fence_mode: str, scale, params,
            fingerprint: Optional[str] = None) -> str:
        """Content-addressed key for one (workload, fence mode, scale,
        Table I params) build under the current source tree.  The core
        count and interleave policy ride in through ``scale``.
        """
        if fingerprint is None:
            fingerprint = source_fingerprint()
        return canonical_key(fingerprint, workload, fence_mode, scale, params)

    def _serialize(self, value) -> bytes:
        return zlib.compress(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
            _COMPRESS_LEVEL)

    def _deserialize(self, payload: bytes):
        return pickle.loads(zlib.decompress(payload))


def resolve_caches(cache: Optional[bool] = None,
                   cache_dir: Optional[os.PathLike] = None,
                   trace_cache: Optional[bool] = None,
                   ) -> Tuple[Optional[ResultCache], Optional[str]]:
    """The result store and trace directory of one matrix run or service.

    ``cache=None`` follows ``REPRO_RESULT_CACHE`` (on by default) and
    ``trace_cache=None`` follows ``REPRO_TRACE_CACHE`` (on by default),
    except that an explicit ``cache=False`` — "no disk caching, please"
    — also turns the trace cache off.  Traces live under
    ``cache_dir``/traces when ``cache_dir`` is given, the default trace
    directory otherwise.  Either half is None when it is off; the trace
    directory is a string so it pickles into worker tasks.
    """
    if trace_cache is None:
        trace_cache = cache is not False and knob("REPRO_TRACE_CACHE")
    if cache is None:
        cache = knob("REPRO_RESULT_CACHE")
    store = ResultCache(cache_dir) if cache else None
    trace_dir = None
    if trace_cache:
        trace_dir = str(Path(cache_dir) / TRACE_SUBDIR if cache_dir is not None
                        else default_trace_cache_dir())
    return store, trace_dir


def load_or_build(workload: str, fence_mode: str, scale, params=None, *,
                  store: TraceCache):
    """Return the built workload from ``store``, building it on a miss.

    On a miss the workload is built through
    :func:`repro.workloads.base.build` and the result is stored for every
    later process (and every later worker group of this process).
    ``params=None`` keys under the default Table I parameters.

    With ``REPRO_PROFILE=1`` the cache probe is profiled as its own
    ``load`` phase (zlib + unpickling) and a miss's build as ``build``,
    so warm runs no longer report deserialization time as build time.
    """
    from repro.harness.profiling import maybe_profile
    from repro.workloads import base as workload_base

    if params is None:
        from repro.harness.configs import DEFAULT_PARAMS

        params = DEFAULT_PARAMS
    label = "%s-%s" % (workload, fence_mode)
    key = store.key(workload, fence_mode, scale, params)
    with maybe_profile(label, "load"):
        built = store.load(key)
    if built is None:
        with maybe_profile(label, "build"):
            built = workload_base.build(workload, fence_mode, scale)
        store.store(key, built)
    return built
