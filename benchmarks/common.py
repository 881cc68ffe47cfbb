"""Shared infrastructure for the benchmark harness.

Every bench regenerates one table or figure of the paper.  The full
application x configuration matrix is expensive, so it is computed once per
scale and shared across bench modules — and, via the parallel + cached
experiment engine (:mod:`repro.harness.parallel`), across *processes*:
independent simulations fan out over a process pool, and results persist in
``.benchmarks/cache`` so repeated bench invocations skip simulation.

Scale selection: set ``REPRO_BENCH_OPS`` / ``REPRO_BENCH_TXNS`` to override
the default (25 ops/txn x 20 txns — large enough to reach NVM-buffer steady
state while staying laptop-friendly; the paper uses 100 x 1000).  Values
must be positive integers.  ``REPRO_PARALLEL`` sets the worker count,
``REPRO_RESULT_CACHE=0`` disables the persistent result cache (see
:mod:`repro.harness.result_cache`); with it warm, a repeated bench
invocation does neither simulation nor trace interpretation.
"""

from __future__ import annotations

import functools
from typing import Dict

from repro.harness import CONFIGURATIONS
from repro.harness.configs import DEFAULT_PARAMS
from repro.harness.envutil import knob
from repro.harness.experiments import APPLICATIONS
from repro.harness.parallel import run_matrix_parallel
from repro.harness.runner import RunResult
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy, warm_hierarchy
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.replay import meta_for
from repro.workloads import Scale

def bench_scale() -> Scale:
    return Scale(ops_per_txn=knob("REPRO_BENCH_OPS"),
                 txns=knob("REPRO_BENCH_TXNS"))


@functools.lru_cache(maxsize=4)
def _matrix_cached(ops: int, txns: int) -> Dict[str, Dict[str, RunResult]]:
    scale = Scale(ops_per_txn=ops, txns=txns)
    return run_matrix_parallel(list(APPLICATIONS), list(CONFIGURATIONS), scale)


def full_matrix() -> Dict[str, Dict[str, RunResult]]:
    scale = bench_scale()
    return _matrix_cached(scale.ops_per_txn, scale.txns)


def simulate(built, config, params=DEFAULT_PARAMS):
    """One timing simulation of a pre-built trace (no build, no checker)."""
    controller = MemoryController(
        address_map=params.address_map,
        dram_params=params.dram,
        nvm_params=params.nvm,
    )
    hierarchy = CacheHierarchy(controller, params.hierarchy)
    warm_hierarchy(hierarchy, built)
    core = OutOfOrderCore(built.trace, hierarchy, config.policy, params.core,
                          replay=meta_for(built))
    return core.run()


def config_names() -> list:
    return [c.name for c in CONFIGURATIONS]


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
