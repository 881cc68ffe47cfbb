"""The e2e benchmark's digest copy stays equal to the program's own.

``benchmarks/e2e/golden.py`` keeps its own ``run_digest`` until the
benchmark next changes; its committed goldens and ``tests/golden`` must
keep meaning the same thing until then.
"""

import pytest

from benchmarks.e2e import golden
from repro.harness.configs import configuration
from repro.harness.digest import run_digest
from repro.harness.runner import run_one
from repro.workloads import Scale


@pytest.mark.parametrize("workload,cores", [("update", 1), ("mpsc", 2)])
def test_benchmark_copy_matches_src_digest(workload, cores):
    run = run_one(workload, configuration("WB"),
                  Scale(ops_per_txn=4, txns=3, cores=cores))
    assert golden.run_digest(run) == run_digest(run)
