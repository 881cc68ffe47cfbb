"""Static prover vs. dynamic checker: GUARANTEED must never be refuted.

The prover's soundness contract (see ``repro.analysis.persist``) is that
a statically GUARANTEED obligation can never be reported violated by the
dynamic consistency checker under any safe configuration.  This test
builds each workload once, proves its obligations statically, simulates
the same trace under B (dsb), IQ and WB (ede), and cross-references the
two verdicts obligation-by-obligation.
"""

import pytest

from repro.analysis.persist import GUARANTEED, PersistProver
from repro.analysis.report import analyze_built
from repro.harness.configs import CONFIG_BY_NAME
from repro.harness.runner import run_one
from repro.workloads import base as workloads_base

SAFE_CONFIGS = ("B", "IQ", "WB")
WORKLOADS = ("update", "swap")

CASES = [(w, c) for w in WORKLOADS for c in SAFE_CONFIGS]


def _prove(built, mode):
    return PersistProver(built.trace).prove_all(built.obligations)


@pytest.mark.parametrize("workload,config_name", CASES,
                         ids=["%s-%s" % wc for wc in CASES])
def test_guaranteed_obligations_pass_dynamic_checker(workload, config_name):
    config = CONFIG_BY_NAME[config_name]
    built = workloads_base.build(workload, config.fence_mode,
                                 workloads_base.TEST_SCALE)
    verdicts = _prove(built, config.fence_mode)
    assert verdicts, "workload emitted no obligations"

    # Reuse the same built trace so the static and dynamic sides check
    # the identical obligation objects.
    result = run_one(workload, config, workloads_base.TEST_SCALE, built=built)
    dynamically_violated = {
        id(v.obligation) for v in result.consistency.violations
    }

    refuted = [
        v for v in verdicts
        if v.verdict == GUARANTEED and id(v.obligation) in dynamically_violated
    ]
    assert not refuted, (
        "statically GUARANTEED obligations refuted dynamically:\n"
        + "\n".join(str(v.obligation) for v in refuted)
    )

    # Under these safe configurations the prover discharges every
    # obligation outright — pin that strength, not just soundness.
    assert all(v.verdict == GUARANTEED for v in verdicts), [
        (v.verdict, str(v.obligation)) for v in verdicts if v.verdict != GUARANTEED
    ]
    assert result.consistency.observed_safe


@pytest.mark.parametrize("workload", WORKLOADS)
def test_static_report_matches_dynamic_under_ede(workload):
    # The full report path (what the CLI and CI's analyzer sweep run)
    # must agree with the raw prover: zero violated, zero errors.
    config = CONFIG_BY_NAME["IQ"]
    built = workloads_base.build(workload, config.fence_mode,
                                 workloads_base.TEST_SCALE)
    report = analyze_built(built, target=workload, mode=config.fence_mode)
    assert report.verdict_counts["violated"] == 0
    assert not report.errors
