"""Deterministic, seeded fault injection for the experiment harness.

The supervisor (:mod:`repro.harness.supervisor`) claims it survives
worker death, hangs and cache corruption; this module is how those
claims get exercised.  A :class:`FaultPlan` is a concrete list of
:class:`FaultSpec` entries — *at injection point P, for labels matching
M, perform action A, at most N times* — serialized into the
``REPRO_CHAOS`` environment variable so it rides into every process-pool
worker automatically.  Production code marks its injection points with
:func:`chaos_point`, which is a no-op (one env lookup) unless a plan is
installed.

Injection points currently wired into the harness:

========== =========================== ====================================
point      label                       where
========== =========================== ====================================
``worker``  ``<workload>/<fence mode>`` start of a simulation group
                                        (:func:`repro.harness.parallel.
                                        simulate_group`)
``run_one`` ``<workload>/<config>``     start of one simulation
``build``   ``<workload>/<fence mode>`` start of a trace build
``store``   ``<kind>:<key>``            after a cache entry is written
                                        (``kind`` is ``result``/``trace``)
========== =========================== ====================================

Actions: ``kill`` (``os._exit`` — worker processes only; in the main
process it degrades to ``raise`` so chaos can never take down the
supervisor itself), ``raise`` (:class:`ChaosError`), ``stall``
(``time.sleep(seconds)``, to blow a wall-clock heartbeat), ``truncate``
and ``bitflip`` (damage the just-written cache file).

**Once-only accounting is cross-process.**  ``times=1`` must mean once
per *plan*, not once per process — a respawned worker inherits the env
var with fresh in-memory counters, so a kill fault tracked in memory
would kill every respawn forever and the matrix could never converge.
Firings are therefore claimed by atomically creating marker files under
the plan's ``state_dir`` (``O_CREAT | O_EXCL``), which every process of
the run shares.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fnmatch
import json
import multiprocessing
import os
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.corrupt import bitflip_file, truncate_file

#: Environment variable carrying the installed plan (JSON, or a path to a
#: JSON file when the value does not start with ``{``).
ENV_VAR = "REPRO_CHAOS"

#: Exit status used by ``kill`` faults, distinctive in worker post-mortems.
KILL_EXIT_CODE = 77

ACTIONS = ("kill", "raise", "stall", "truncate", "bitflip")

#: Actions that need the file path of the injection point.
_FILE_ACTIONS = ("truncate", "bitflip")


class ChaosError(RuntimeError):
    """Raised by a ``raise``-action fault (and by ``kill`` in the main
    process, which must never be taken down by its own chaos plan)."""


def in_worker_process() -> bool:
    """True in a multiprocessing child (process-pool worker)."""
    return multiprocessing.parent_process() is not None


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault: *at point, for matching labels, do action, N times*."""

    point: str
    action: str
    match: str = "*"
    times: int = 1
    #: Sleep duration for ``stall`` faults, seconds.
    seconds: float = 30.0

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(
                "unknown chaos action %r (have: %s)"
                % (self.action, ", ".join(ACTIONS)))
        if self.times < 1:
            raise ValueError("times must be >= 1, got %d" % self.times)


@dataclasses.dataclass
class FaultPlan:
    """A deterministic set of faults plus shared firing state.

    Args:
        faults: The fault specs, evaluated in order at each point.
        state_dir: Directory for cross-process once-only claim files;
            every process of the run must see the same filesystem path.
        seed: Drives the deterministic parts of fault behaviour (which
            bit a ``bitflip`` flips) and the :func:`pick_victim` helper.
    """

    faults: List[FaultSpec]
    state_dir: str
    seed: int = 0

    # --- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "state_dir": str(self.state_dir),
            "faults": [dataclasses.asdict(spec) for spec in self.faults],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            faults=[FaultSpec(**spec) for spec in data.get("faults", ())],
            state_dir=data["state_dir"],
            seed=data.get("seed", 0),
        )

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """The installed plan, or None; ``environ`` (a mapping) stands in
        for the process environment."""
        raw = _installed() if environ is None else environ.get(ENV_VAR)
        if not raw:
            return None
        if not raw.lstrip().startswith("{"):
            raw = Path(raw).read_text()
        return cls.from_json(raw)

    def install(self, environ=os.environ) -> None:
        """Activate the plan: create the state dir, set ``REPRO_CHAOS``.

        Must happen *before* the process pool spawns so workers inherit
        the knob.
        """
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        environ[ENV_VAR] = self.to_json()

    def uninstall(self, environ=os.environ) -> None:
        environ.pop(ENV_VAR, None)

    @contextlib.contextmanager
    def installed(self, environ=os.environ):
        self.install(environ)
        try:
            yield self
        finally:
            self.uninstall(environ)

    # --- firing -------------------------------------------------------------

    def fire(self, point: str, label: str = "",
             path: Optional[os.PathLike] = None) -> None:
        """Evaluate every fault spec against one injection-point hit."""
        for index, spec in enumerate(self.faults):
            if spec.point != point:
                continue
            if not fnmatch.fnmatchcase(label, spec.match):
                continue
            if spec.action in _FILE_ACTIONS and path is None:
                continue  # file fault at a pathless point: misconfigured
            if not self._claim(index, spec):
                continue  # firing budget spent (possibly by another process)
            self._act(spec, point, label, path)

    def _claim(self, index: int, spec: FaultSpec) -> bool:
        """Atomically claim one of the spec's ``times`` firings."""
        for firing in range(spec.times):
            marker = Path(self.state_dir) / (
                "fault%d.fired%d" % (index, firing))
            try:
                fd = os.open(str(marker),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def _act(self, spec: FaultSpec, point: str, label: str,
             path: Optional[os.PathLike]) -> None:
        if spec.action == "kill":
            if in_worker_process():
                os._exit(KILL_EXIT_CODE)
            # Never kill the supervisor itself; degrade to an exception.
            raise ChaosError(
                "chaos kill at %s[%s] (demoted to raise in the main process)"
                % (point, label))
        if spec.action == "raise":
            raise ChaosError("chaos raise at %s[%s]" % (point, label))
        if spec.action == "stall":
            time.sleep(spec.seconds)
            return
        rng = random.Random("%d:%s:%s:%s" % (self.seed, spec.action,
                                             point, label))
        if spec.action == "truncate":
            truncate_file(path, fraction=0.25 + rng.random() / 2)
        else:  # bitflip
            bitflip_file(path, rng)


# --------------------------------------------------------------------------
# The production-code hook
# --------------------------------------------------------------------------

#: Parsed plan memoized per env value (workers parse once, not per hit).
_CACHED: Optional[Tuple[str, FaultPlan]] = None


def _installed() -> Optional[str]:
    """The raw ``REPRO_CHAOS`` value (inline JSON or a path), or None."""
    # Imported here: the harness package imports repro.chaos.
    from repro.harness.envutil import knob

    return knob(ENV_VAR)


def chaos_active() -> bool:
    """Whether a fault plan is installed in this process's environment."""
    return _installed() is not None


def chaos_point(point: str, label: str = "",
                path: Optional[os.PathLike] = None) -> None:
    """Declare an injection point; fires matching faults when a plan is
    installed.  Costs one environment lookup when chaos is off."""
    raw = _installed()
    if not raw:
        return
    global _CACHED
    if _CACHED is None or _CACHED[0] != raw:
        text = raw if raw.lstrip().startswith("{") else Path(raw).read_text()
        _CACHED = (raw, FaultPlan.from_json(text))
    _CACHED[1].fire(point, label, path)


def pick_victim(options: Sequence[str], seed: int) -> str:
    """Deterministically choose one victim label from ``options``.

    Sorts first so the choice depends only on the option *set* and the
    seed, not on discovery order — two runs of the same plan always
    target the same group.
    """
    ordered = sorted(options)
    if not ordered:
        raise ValueError("no options to pick a victim from")
    return ordered[random.Random(str(seed)).randrange(len(ordered))]


def summarize_state(plan: FaultPlan) -> Dict[str, int]:
    """How many firings each fault has spent (for assertions/reports)."""
    spent: Dict[str, int] = {}
    for index, spec in enumerate(plan.faults):
        fired = sum(
            1 for firing in range(spec.times)
            if (Path(plan.state_dir) / ("fault%d.fired%d"
                                        % (index, firing))).exists())
        spent["%s[%s]:%s" % (spec.point, spec.match, spec.action)] = fired
    return spent
