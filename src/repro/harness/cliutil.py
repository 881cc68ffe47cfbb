"""Shared command-line plumbing for the ``python -m repro.*`` drivers.

Every CLI that prints to stdout can lose it mid-write when piped into a
pager or ``head``; the fix (swallow ``BrokenPipeError``, point the
dying stdout at ``/dev/null`` so the interpreter's shutdown flush does
not traceback either) was first applied to ``repro.cluster status`` and
is hoisted here so every driver exits the way coreutils do.  Every
driver also validates the whole ``REPRO_*`` environment before it does
anything (:func:`exit_on_bad_env`).
"""

from __future__ import annotations

import os
import sys
from typing import Callable

from repro.harness.envutil import check_env


def exit_on_bad_env(prog: str) -> None:
    """Exit with status 2 and one message naming every malformed
    ``REPRO_*`` knob, before a driver acts on any of them."""
    try:
        check_env()
    except ValueError as exc:
        print("%s: error: %s" % (prog, exc), file=sys.stderr)
        sys.exit(2)


def guard_broken_pipe(handler: Callable[..., int], *args, **kwargs) -> int:
    """Run a CLI handler; exit quietly if stdout's reader went away.

    Returns the handler's exit status, or 0 on ``BrokenPipeError`` —
    ``analysis | head`` terminating the pipe early is the reader saying
    "enough", not an error.  Redirecting the broken stdout to
    ``/dev/null`` keeps the interpreter's implicit shutdown flush from
    raising the same error again after we have handled it.
    """
    try:
        return handler(*args, **kwargs)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
