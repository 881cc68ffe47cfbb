"""The subsystem's determinism contract.

Two claims, each asserted as *bit identity* via
:func:`tests.golden.identity.run_identity`: the corpus digest
:func:`~repro.harness.digest.run_digest` (cycles, the stall counters and
issue histogram, the NVM counters and buffer samples, the complete
persist log and the consistency verdict) plus the full pipeline and
per-core statistics and the violation and unresolved lists:

1. a (seed, core count) pair yields identical results on repeated runs;
2. the serial and parallel matrix engines agree at ``cores=2``.

That an N=1 build through the lockstep driver equals the classic
single-core run is pinned by the golden corpus (``tests/golden``).
"""

import dataclasses

import pytest

from repro.harness.configs import configuration
from repro.harness.runner import run_one
from repro.multicore.build import run_schedule
from repro.workloads.base import Scale
from tests.golden.identity import run_identity

SAFE = ("B", "IQ", "WB")
MULTI = ("hazard", "mpsc", "counter")
SCALE2 = Scale(ops_per_txn=5, txns=3, seed=2021, cores=2)


class TestRepeatRuns:
    @pytest.mark.parametrize("workload", MULTI)
    @pytest.mark.parametrize("config", SAFE)
    def test_same_seed_same_digest(self, workload, config):
        first = run_identity(run_one(workload, configuration(config),
                                      SCALE2))
        second = run_identity(run_one(workload, configuration(config),
                                       SCALE2))
        assert first == second

    def test_seed_changes_digest(self):
        # Hazard's element/mutation draws come from the scale seed, so a
        # different seed builds observably different traces.  (counter and
        # mpsc only vary *written values* with the seed under the default
        # round-robin interleaver, and values are not timing-visible.)
        base = run_identity(run_one("hazard", configuration("IQ"), SCALE2))
        other = run_identity(run_one(
            "hazard", configuration("IQ"),
            Scale(ops_per_txn=5, txns=3, seed=7, cores=2)))
        assert base != other

    def test_interleaving_changes_digest(self):
        # The consumer's per-transaction `take` count depends on how many
        # produces the interleaver ran before each consume — a genuinely
        # interleaving-dependent trace.  At 2 cores mpsc runs 3 consume
        # units on core 0 and 3 produce units on core 1; at seed 2021 the
        # weighted schedule is [1, 0, 0, 0, 1, 1] against round-robin's
        # strict turns.
        weighted = dataclasses.replace(SCALE2, interleave="weighted")
        units = [[lambda: None] * SCALE2.txns] * 2
        assert run_schedule(units, SCALE2) == [0, 1, 0, 1, 0, 1]
        assert run_schedule(units, weighted) == [1, 0, 0, 0, 1, 1]
        base = run_identity(run_one("mpsc", configuration("IQ"), SCALE2))
        other = run_identity(run_one("mpsc", configuration("IQ"), weighted))
        assert base != other

    def test_core_count_changes_digest(self):
        two = run_identity(run_one("counter", configuration("IQ"), SCALE2))
        three = run_identity(run_one(
            "counter", configuration("IQ"),
            Scale(ops_per_txn=5, txns=3, seed=2021, cores=3)))
        assert two != three


class TestSingleCoreReduction:
    """Per-core stats appear only on multi-core results; the N=1
    reduction itself is pinned by the golden corpus."""

    def test_single_core_result_has_no_core_stats(self):
        result = run_one("mpsc", configuration("WB"),
                         Scale(ops_per_txn=5, txns=3))
        assert result.core_stats is None

    def test_multicore_result_carries_core_stats(self):
        result = run_one("mpsc", configuration("WB"), SCALE2)
        assert result.core_stats is not None
        assert len(result.core_stats) == 2
        assert sum(s.retired for s in result.core_stats) == \
            result.stats.retired


class TestSerialParallelEquality:
    def test_matrix_engines_agree_at_two_cores(self, tmp_path):
        from repro.harness.parallel import run_matrix_parallel
        from repro.harness.runner import run_matrix

        configs = [configuration(n) for n in SAFE]
        serial = run_matrix(list(MULTI), configs, SCALE2)
        parallel = run_matrix_parallel(
            list(MULTI), configs, SCALE2, max_workers=2,
            cache=True, cache_dir=tmp_path)
        for workload in MULTI:
            for name in SAFE:
                assert run_identity(serial[workload][name]) == \
                    run_identity(parallel[workload][name]), (workload, name)
