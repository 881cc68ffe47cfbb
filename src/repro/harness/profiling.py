"""Opt-in per-phase profiling of harness runs.

Setting ``REPRO_PROFILE=1`` wraps each phase of a run — trace *build*
and timing *simulate* — in :mod:`cProfile` and dumps the stats under
``.benchmarks/profile/``: one binary ``<label>.<phase>.prof`` (loadable
with ``pstats`` or ``snakeviz``) plus a ``<label>.<phase>.txt`` rendering
of the top functions by cumulative time.  Profiles are per (workload,
configuration) and the latest run wins, so after a matrix run the
directory answers "where does the time go — build or simulate, and in
which function?" without any harness code changes.

Environment variables:

* ``REPRO_PROFILE`` — ``1`` enables profiling, ``0`` (default) disables
  it; anything else is rejected loudly, consistent with the other
  ``REPRO_*`` knobs.
* ``REPRO_PROFILE_DIR`` — override the default ``.benchmarks/profile``
  output directory.
"""

from __future__ import annotations

import cProfile
import contextlib
import io
import pstats
from pathlib import Path

from repro.harness.envutil import knob

#: How many functions the text rendering keeps.
_TOP_FUNCTIONS = 30


def _dump(profile: cProfile.Profile, label: str, phase: str) -> None:
    root = Path(knob("REPRO_PROFILE_DIR"))
    root.mkdir(parents=True, exist_ok=True)
    profile.dump_stats(str(root / ("%s.%s.prof" % (label, phase))))
    text = io.StringIO()
    stats = pstats.Stats(profile, stream=text)
    stats.sort_stats("cumulative").print_stats(_TOP_FUNCTIONS)
    (root / ("%s.%s.txt" % (label, phase))).write_text(text.getvalue())


#: Whether a maybe_profile block is currently active in this process.
#: cProfile refuses to nest, so an inner block (e.g. ``run_one``'s own
#: phases inside a caller's profiled block) silently yields and its
#: time is attributed to the enclosing phase.
_ACTIVE = False


@contextlib.contextmanager
def maybe_profile(label: str, phase: str):
    """Profile the enclosed block when ``REPRO_PROFILE=1``.

    ``label`` identifies the run (e.g. ``btree-WB``), ``phase`` the part
    of it (``build`` / ``simulate``).  No-op — not even a
    profiler object — when the knob is off, or when an enclosing
    ``maybe_profile`` block is already being profiled.
    """
    global _ACTIVE
    if _ACTIVE or not knob("REPRO_PROFILE"):
        yield
        return
    profile = cProfile.Profile()
    _ACTIVE = True
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        _ACTIVE = False
        _dump(profile, label, phase)
