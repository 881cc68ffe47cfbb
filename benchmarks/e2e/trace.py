"""In-memory span recorder for the end-to-end benchmark (stdlib only).

The benchmark times the program's layers from outside.  A traced run
replaces each layer's public entry point, at the attribute its caller
looks up, by a wrapper that records a span around the call and may read
counts from the returned object.  Nothing under ``src/`` knows about it:
the patches are installed only for traced passes and removed afterwards,
so an untraced pass runs the program exactly as a user would.

A span records its name, start, end, parent span, the op (cell, sweep or
job) it ran for, and its thread.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Reads counts from an entry point's return value into a counts dict.
Observer = Callable[[object, Dict[str, float]], None]


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into SpanRecorder.spans
    op: str
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class Probe:
    """One traced entry point.

    ``owner`` is ``"module"`` or ``"module:Class"``: the object whose
    attribute ``attr`` the callers resolve at call time, so replacing it
    there is seen by every caller.
    """

    span: str
    owner: str
    attr: str
    observe: Optional[Observer] = None


class SpanRecorder:
    """Collects spans from any number of threads, plus named counts."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        """Record ``name`` around the block; ``op`` defaults to the parent's."""
        stack = self._stack()
        parent, parent_op = stack[-1] if stack else (None, "")
        record = Span(name, time.perf_counter(), 0.0, parent,
                      parent_op if op is None else op,
                      threading.current_thread().name)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append((index, record.op))
        try:
            yield
        finally:
            stack.pop()
            record.end = time.perf_counter()

    def add(self, counts: Dict[str, float]) -> None:
        with self._lock:
            for name, value in counts.items():
                self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(probe.span):
                result = fn(*args, **kwargs)
            if probe.observe is not None:
                counts: Dict[str, float] = {}
                probe.observe(result, counts)
                self.add(counts)
            return result

        return traced

    # --- summaries --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + span.duration - child_time[index])
        return totals

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """(calls, inclusive seconds) per span name."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            calls, seconds = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, seconds + span.duration)
        return out

    def root_seconds(self) -> float:
        """Seconds covered by top-level spans, summed over threads."""
        return sum(span.duration for span in self.spans
                   if span.parent is None)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [dataclasses.asdict(s) for s in self.spans],
                       "counts": self.counts}, handle)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


@contextlib.contextmanager
def installed(recorder: SpanRecorder,
              probes: Sequence[Probe]) -> Iterator[None]:
    """Patch every probe's entry point for the duration of the block.

    A probe whose attribute no longer exists raises here, so a rename in
    the program fails the traced run instead of silently zeroing a layer.
    """
    undo = []
    try:
        for probe in probes:
            target = _resolve(probe.owner)
            namespace = vars(target)
            if probe.attr not in namespace:
                raise AttributeError(
                    "%s.%s is gone; span %r cannot be traced"
                    % (probe.owner, probe.attr, probe.span))
            original = namespace[probe.attr]
            setattr(target, probe.attr, recorder.wrap(probe, original))
            undo.append((target, probe.attr, original))
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
