"""Workload infrastructure: scales, registry, common helpers.

Each workload (Table II) is a function that functionally executes its
operations through the :class:`~repro.nvmfw.framework.PersistentFramework`
and returns the resulting :class:`~repro.nvmfw.framework.BuiltWorkload`.
The paper groups 100 operations per transaction and runs 1000 transactions;
the :class:`Scale` dataclass parameterizes that so the pure-Python model can
run scaled-down but steady-state-reaching sizes.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict

from repro.chaos import chaos_point
from repro.gcpause import paused
from repro.multicore.interleave import POLICIES
from repro.nvmfw.framework import BuiltWorkload, PersistentFramework


@dataclasses.dataclass(frozen=True)
class Scale:
    """Run size: ``txns`` transactions of ``ops_per_txn`` operations.

    ``cores`` asks the workload for a multi-core build: ``cores`` pipelines
    contending over shared memory and a shared EDM, each running the full
    ``txns`` transactions (weak scaling).  Only workloads registered with
    ``multicore=True`` model core counts above one; everything else fails
    loudly rather than silently reporting single-core numbers.

    ``interleave`` names the build-time schedule of a multi-core build
    (one of :data:`repro.multicore.interleave.POLICIES`); the weighted
    schedule draws from an RNG seeded by ``seed``.  Being a field, it
    keys every result and job cache like the sizes do.
    """

    ops_per_txn: int = 100
    txns: int = 1000
    seed: int = 2021
    cores: int = 1
    interleave: str = "round_robin"

    def __post_init__(self) -> None:
        if self.interleave not in POLICIES:
            raise ValueError("unknown interleave policy %r (have: %s)"
                             % (self.interleave, ", ".join(POLICIES)))

    @property
    def total_ops(self) -> int:
        return self.ops_per_txn * self.txns


#: The paper's scale (Section VI-B): 100 ops/txn x 1000 txns.
PAPER_SCALE = Scale(ops_per_txn=100, txns=1000)

#: Default scaled-down size for the benchmark harness.
BENCH_SCALE = Scale(ops_per_txn=20, txns=8)

#: Tiny size for unit tests.
TEST_SCALE = Scale(ops_per_txn=5, txns=3)


WorkloadFn = Callable[[str, Scale], BuiltWorkload]

_REGISTRY: Dict[str, WorkloadFn] = {}

#: Workloads whose builders model core counts above one.
_MULTICORE: set = set()

#: Hard cap on modeled cores (bounded by per-core NVM log carve-outs and
#: the 15-key EDM partitioning; see :mod:`repro.multicore.layout`).
MAX_CORES = 8

#: Monotonic count of full (interpreted) workload builds in this process.
#: Tests read it to prove that a resumed matrix rebuilds only the groups
#: the result cache does not already hold.
BUILD_COUNT = 0


def register(name: str,
             multicore: bool = False) -> Callable[[WorkloadFn], WorkloadFn]:
    """Decorator adding a workload builder to the registry."""

    def wrap(fn: WorkloadFn) -> WorkloadFn:
        if name in _REGISTRY:
            raise ValueError("duplicate workload name %r" % name)
        _REGISTRY[name] = fn
        if multicore:
            _MULTICORE.add(name)
        return fn

    return wrap


def ensure_core_count(name: str, cores: int) -> None:
    """Fail loudly when ``cores`` is outside what ``name`` can model."""
    if cores < 1:
        raise ValueError("core count must be >= 1, got %d" % cores)
    if cores > MAX_CORES:
        raise ValueError(
            "core count %d exceeds the modeled maximum of %d"
            % (cores, MAX_CORES))
    if cores > 1 and name not in _MULTICORE:
        raise ValueError(
            "workload %r is single-core only: it does not model %d cores "
            "(multicore workloads: %s)"
            % (name, cores, ", ".join(sorted(_MULTICORE)) or "none"))


def build(name: str, mode: str, scale: Scale) -> BuiltWorkload:
    """Build the named workload's trace for the given fence mode.

    A build functionally executes the workload through the framework;
    it does not depend on the Table I architectural parameters, so one
    trace serves every configuration of a fence mode.  It runs with the
    cyclic GC paused (:mod:`repro.gcpause`).
    """
    global BUILD_COUNT
    ensure_core_count(name, scale.cores)
    chaos_point("build", "%s/%s" % (name, mode))
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown workload %r (have: %s)"
            % (name, ", ".join(sorted(_REGISTRY)))) from None
    BUILD_COUNT += 1
    with paused():
        return fn(mode, scale)


def workload_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def make_rng(scale: Scale) -> random.Random:
    return random.Random(scale.seed)


def new_framework(mode: str) -> PersistentFramework:
    return PersistentFramework(mode)
