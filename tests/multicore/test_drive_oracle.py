"""The lockstep driver's skip rule against the every-core reference.

``run_digest`` leaves out per-core statistics, so the golden corpus alone
cannot catch a stall charged to the wrong core; this compares every
``PipelineStats`` field of every core, the merged store visibility and
the persist log with :mod:`tests.multicore.reference_drive`.
"""

import dataclasses

import pytest

from repro.harness.configs import DEFAULT_PARAMS, configuration
from repro.multicore.system import simulate_built
from repro.workloads import base as workload_base
from tests.multicore.reference_drive import reference_simulate


def _observed(sim):
    return ([dataclasses.asdict(stats) for stats in sim.core_stats],
            sim.store_visibility,
            list(sim.controller.persist_log))


@pytest.mark.parametrize("seed", [2021, 7, 14])
@pytest.mark.parametrize("cores", [2, 4])
@pytest.mark.parametrize("config", ["B", "WB", "U"])
@pytest.mark.parametrize("workload", ["hazard", "mpsc", "counter"])
def test_drive_equals_every_core_stepping(monkeypatch, workload, config,
                                          cores, seed):
    config = configuration(config)
    built = workload_base.build(workload, config.fence_mode,
                                workload_base.Scale(4, 3, seed=seed,
                                                    cores=cores))
    sim = simulate_built(built, config, DEFAULT_PARAMS)
    reference = reference_simulate(monkeypatch, built, config,
                                   DEFAULT_PARAMS)
    assert _observed(sim) == _observed(reference)
    assert 0 < sim.core_steps <= reference.core_steps
