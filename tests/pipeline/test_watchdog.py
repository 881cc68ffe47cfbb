"""Progress watchdog: stalls and budget blowouts die loudly."""

import dataclasses

import pytest

from repro.isa import instructions as ops
from repro.pipeline.core import SimulationError
from repro.pipeline.params import CoreParams

from tests.pipeline.conftest import NVM, make_core

COLD_LINE = NVM + 0x10000


def stalled_core(params=CoreParams()):
    """A core whose ROB head is a cold NVM load.

    The independent instructions behind the load keep dispatching,
    issuing and completing for dozens of cycles, so every stage reports
    progress, yet nothing retires until the NVM read returns — the
    quiescence-based deadlock detector cannot see this, only the
    watchdog can.
    """
    trace = [ops.mov_imm(1, COLD_LINE), ops.ldr(2, 1, addr=COLD_LINE)]
    trace += [ops.mov_imm(3 + r % 8, r) for r in range(60)]
    core, _ = make_core(trace, params=params)
    return core


class TestNoRetireWatchdog:
    def test_livelock_raises_with_report(self):
        core = stalled_core()
        with pytest.raises(SimulationError) as excinfo:
            core.run(no_retire_limit=5)
        message = str(excinfo.value)
        assert "no instruction retired" in message
        assert "watchdog limit 5" in message
        # The rich pipeline-state report rides along.
        assert "ROB:" in message and "event heap" in message
        assert "head=DynInst(#1 ldr" in message

    def test_limit_defaults_to_params(self):
        params = dataclasses.replace(CoreParams(), watchdog_no_retire=5)
        core = stalled_core(params=params)
        with pytest.raises(SimulationError, match="watchdog limit 5"):
            core.run()

    def test_zero_disables_the_watchdog(self):
        core = stalled_core()
        stats = core.run(no_retire_limit=0)
        assert stats.retired == len(core.trace)

    def test_healthy_run_unaffected(self):
        trace = [ops.mov_imm(r % 8, r) for r in range(32)]
        core, _ = make_core(trace)
        stats = core.run(no_retire_limit=100)
        assert stats.retired == len(trace) + 1  # + HALT

    def test_param_validates_zero_but_not_negative(self):
        dataclasses.replace(CoreParams(), watchdog_no_retire=0).validate()
        with pytest.raises(ValueError, match="watchdog_no_retire"):
            dataclasses.replace(CoreParams(),
                                watchdog_no_retire=-1).validate()


class TestCycleBudget:
    def test_budget_blowout_carries_state_report(self):
        trace = [ops.mov_imm(r % 8, r) for r in range(200)]
        core, _ = make_core(trace)
        with pytest.raises(SimulationError) as excinfo:
            core.run(max_cycles=20, no_retire_limit=0)
        message = str(excinfo.value)
        assert "exceeded the 20-cycle budget" in message
        assert "fetch index" in message

    def test_lockstep_budget_report_carries_synced_state(self):
        from repro.multicore.system import drive

        trace = [ops.mov_imm(r % 8, r) for r in range(200)]
        core, _ = make_core(trace)
        with pytest.raises(SimulationError) as excinfo:
            drive([core], max_cycles=20, no_retire_limit=0)
        message = str(excinfo.value)
        assert "exceeded the 20-cycle budget" in message
        # The driver closes the core's loop before reporting, which
        # writes its frame state and statistics back onto the core.
        assert "fetch index: 63 / 201" in message
        assert core.stats.cycles == 21
