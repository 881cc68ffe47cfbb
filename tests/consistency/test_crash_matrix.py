"""Crash-consistency sweep: every (workload, safe-config) cell recovers.

Satellite of the resilience work: Table III claims the spec-safe
configurations (B, IQ, WB) are crash consistent; this sweep runs every
application under every safe configuration at a reduced scale and
validates recovery at *every* crash point of each persist log — zero
checker violations, consistent recovery everywhere.
"""

import pytest

from repro.consistency.crash_sim import CrashInjector
from repro.harness import configuration
from repro.harness.experiments import APPLICATIONS
from repro.harness.parallel import run_matrix_parallel
from repro.workloads import Scale

#: Reduced scale: big enough for multi-transaction logs, small enough to
#: sweep every crash point of every cell.
SWEEP_SCALE = Scale(ops_per_txn=5, txns=2)

SAFE_CONFIGS = ("B", "IQ", "WB")


@pytest.fixture(scope="module")
def safe_matrix():
    return run_matrix_parallel(
        list(APPLICATIONS), [configuration(name) for name in SAFE_CONFIGS],
        SWEEP_SCALE, max_workers=2, cache=False)


@pytest.mark.parametrize("app", APPLICATIONS)
@pytest.mark.parametrize("config", SAFE_CONFIGS)
class TestEveryCellRecovers:
    def test_zero_checker_violations(self, safe_matrix, app, config):
        result = safe_matrix[app][config]
        assert result.consistency.verdict == "safe", (app, config)
        assert result.consistency.violations == [], (app, config)

    def test_consistent_recovery_at_every_crash_point(self, safe_matrix,
                                                      app, config):
        result = safe_matrix[app][config]
        injector = CrashInjector(result.built, result.persist_log)
        if not injector.supports_recovery_validation:
            # Tree workloads record no per-transaction state snapshots, so
            # only the ordering checker (test above) applies to them — and
            # the injector must say so loudly, not pass vacuously.
            with pytest.raises(ValueError, match="committed states"):
                injector.validate_many()
            return
        reports = injector.validate_many()
        assert reports, (app, config)
        bad = [r.crash_point for r in reports if not r.consistent]
        assert bad == [], (app, config)
        # The final crash point reflects the fully committed run.
        assert reports[-1].committed_txns == SWEEP_SCALE.txns, (app, config)
