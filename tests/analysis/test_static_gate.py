"""The error findings that gate a build: CI's analyzer sweep
(``python -m repro.analysis``) fails on any of them."""

from repro.analysis.persist import derive_obligations
from repro.analysis.report import analyze_built
from repro.isa import instructions as ops
from repro.nvmfw.layout import DEFAULT_LAYOUT
from repro.nvmfw.framework import BuiltWorkload
from repro.workloads import base as workloads_base


def _bad_built():
    """A hand-rolled build whose log persist is statically unordered."""
    trace = [
        ops.mov_imm(2, 64),
        ops.dc_cvap(2, comment="log:0"),
        ops.store(3, 1, comment="store:0"),
        ops.halt(),
    ]
    obligations = derive_obligations(trace)
    assert obligations, "fixture must carry a derived obligation"
    return BuiltWorkload(
        trace=trace,
        obligations=obligations,
        line_snapshots={},
        committed_writes=[],
        final_memory={},
        baseline_memory={},
        layout=DEFAULT_LAYOUT,
        ops=1,
        txns=0,
    )


def test_gate_rejects_statically_violated_build():
    report = analyze_built(_bad_built(), target="bad", mode="ede",
                           lint=False)
    assert report.target == "bad"
    assert report.mode == "ede"
    assert [f.check for f in report.errors] == ["persist-ordering"]
    assert "log-before-store" in report.errors[0].message


def test_gate_accepts_correct_builds():
    for mode in ("dsb", "ede"):
        built = workloads_base.build("update", mode, workloads_base.TEST_SCALE)
        report = analyze_built(built, target="update", mode=mode, lint=False)
        assert report.errors == []
