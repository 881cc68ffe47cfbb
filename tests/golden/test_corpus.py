"""Every path through the simulator reproduces the golden digest corpus.

The corpus (``corpus.json``, written by :mod:`tests.golden.record`) pins
the single-core matrix, the lockstep multi-core driver at 1, 2 and 4
cores, and squash injection — so the pipeline loop is checked against
committed results rather than against a second copy of itself.
"""

import pytest

from repro.workloads.base import workload_names
from tests.golden import record

CASES = record.cases()
GOLDEN = record.load_corpus()


def _ids(prefix):
    return sorted(case for case in CASES if case.startswith(prefix))


def _check(case):
    assert case in GOLDEN, "no golden digest for %s" % case
    assert CASES[case]() == GOLDEN[case], case


def test_corpus_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", _ids("matrix/"))
def test_matrix(case):
    _check(case)


@pytest.mark.parametrize("case", _ids("multicore/"))
def test_multicore(case):
    _check(case)


@pytest.mark.parametrize("case", _ids("squash/"))
def test_squash(case):
    _check(case)


@pytest.mark.parametrize("workload", workload_names())
def test_one_core_lockstep_equals_classic(workload):
    """At N=1 the lockstep driver reduces to the classic single-core run,
    for every workload under every configuration."""
    for config in record.CONFIG_NAMES:
        assert GOLDEN["multicore/%s/%s/1c" % (workload, config)] == \
            GOLDEN["matrix/%s/%s" % (workload, config)], config
