"""The one owner of the process-wide cyclic-GC pause.

Trace build and the pipeline loop allocate hundreds of thousands of
tracked objects (instructions, in-flight instructions, events) and form
no reference cycles, so collections during them find nothing and walk an
ever larger heap.  They, and the replay prepass between them, run inside
:func:`paused`.

``gc.disable()`` is process-wide, so the pause is counted rather than
toggled: the first entrant (in any thread) records whether the GC was on
and turns it off, and the last one to leave turns it back on only if it
was.  Overlapping pauses in several threads, nested pauses and a caller
that turned the GC off itself all end with the GC as they found it.
"""

from __future__ import annotations

import gc
import threading


class _Pause:
    """The context manager :func:`paused` returns.

    Leaving it allocates no GC-tracked object after the GC is back on,
    so no collection starts before the paused call returns: a generator
    context manager would raise ``StopIteration`` there, and ``with`` on
    the lock would build ``__exit__``'s argument tuple.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Pauses entered and not yet left, over every thread.
        self._depth = 0
        #: Whether the GC was on when the outermost pause began.
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        self._lock.acquire()
        try:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()
        finally:
            self._lock.release()


_PAUSE = _Pause()


def paused() -> _Pause:
    """Hold the cyclic GC off for a ``with`` block (see the module
    docstring)."""
    return _PAUSE
