"""The proof-guided fence autotuner (repro.analysis.autotune).

Covers the acceptance claims end to end at test scale:

* every safe configuration of every transactional workload yields a
  strictly smaller ordering footprint (or an explicit proven-minimal
  report),
* every emitted variant is validated — recovered-state digest
  bit-identical to the unoptimized serial run, crash sweep consistent
  where recovery validation is supported,
* the rewriter's safety rails (tagged persists, branches, the zero key)
  cannot be bypassed by the search, and
* the search obligations pin every inter-transaction barrier except the
  final one.
"""

import dataclasses

import pytest

from repro.analysis.autotune import (
    COMMIT_BEFORE_NEXT_TXN,
    INIT_BEFORE_PUBLISH,
    OPTIMIZED,
    PROVEN_MINIMAL,
    SKIPPED,
    autotune_workload,
    derive_search_obligations,
    ordering_breakdown,
    program_digest,
    to_findings,
    used_keys,
)
from repro.analysis.findings import INFO, WARNING
from repro.harness import configuration, run_one
from repro.isa import instructions as ops
from repro.nvmfw import codegen
from repro.workloads.base import TEST_SCALE, build

SAFE_CONFIGS = ("B", "IQ", "WB")


# --- search obligations -------------------------------------------------------


def test_commit_obligations_span_transactions():
    trace = [
        ops.dc_cvap(2, comment="log:0"),
        ops.dc_cvap(2, comment="commit:0"),
        ops.dsb_sy(),
        ops.dc_cvap(2, comment="log:1"),
        ops.dc_cvap(2, comment="data:1"),
        ops.dc_cvap(2, comment="commit:1"),
        ops.halt(),
    ]
    obligations = derive_search_obligations(trace)
    commit = [o for o in obligations if o.kind == COMMIT_BEFORE_NEXT_TXN]
    # commit:0 must precede log:1 and data:1; commit:1 has no successor.
    assert {(o.first_tag, o.second_tag) for o in commit} == {
        ("commit:0", "log:1"), ("commit:0", "data:1"),
    }


def test_publication_obligation_pairs_init_with_publish():
    trace = [
        ops.store(2, 1, comment="init:0"),
        ops.dmb_st(),
        ops.store(3, 1, comment="publish:0"),
        ops.store(4, 1, comment="init:7"),  # no matching publish
        ops.halt(),
    ]
    obligations = derive_search_obligations(trace)
    pub = [o for o in obligations if o.kind == INIT_BEFORE_PUBLISH]
    assert [(o.first_tag, o.second_tag) for o in pub] == [
        ("init:0", "publish:0")
    ]


# --- program accounting -------------------------------------------------------


def test_ordering_breakdown_counts_by_class():
    trace = [ops.dsb_sy(), ops.dmb_sy(), ops.dmb_st(), ops.wait_key(3),
             ops.wait_all_keys(), ops.store(2, 1), ops.halt()]
    assert ordering_breakdown(trace) == {
        "full_fences": 2, "dmb_st": 1, "waits": 2,
    }


def test_used_keys_ignores_zero_key():
    trace = [ops.dc_cvap_ede(2, edk_def=5, edk_use=0),
             ops.wait_key(5), ops.store(2, 1), ops.halt()]
    assert used_keys(trace) == [5]


def test_program_digest_tracks_content():
    a = [ops.dsb_sy(), ops.halt()]
    b = [ops.dmb_sy(), ops.halt()]
    assert program_digest(a) != program_digest(b)
    assert program_digest(a) == program_digest(list(a))


# --- the acceptance matrix ----------------------------------------------------


@pytest.mark.parametrize(
    "workload", ["update", "swap", "btree", "ctree", "rbtree", "rtree"])
@pytest.mark.parametrize("config", SAFE_CONFIGS)
def test_safe_configs_shrink_or_prove_minimal(workload, config):
    report = autotune_workload(workload, config, scale=TEST_SCALE)
    assert report.status in (OPTIMIZED, PROVEN_MINIMAL), report.reason
    before = sum(report.ordering_before.values())
    after = sum(report.ordering_after.values())
    if report.status == OPTIMIZED:
        assert after < before or report.key_map
        assert report.digest_match is True
        assert report.program_after != report.program_before
    else:
        assert after == before
        assert report.exhaustive


def test_update_b_removes_only_the_final_trailing_fence():
    """Derived commit obligations pin every trailing DSB but the last
    transaction's — that one has no successor to order against.  The
    emitted variant's crash sweep covers every one of its crash points."""
    report = autotune_workload("update", "B", scale=TEST_SCALE)
    assert report.status == OPTIMIZED
    assert report.fences_removed == 1
    assert report.crash_sweep["supported"] is True
    assert report.crash_sweep["consistent"] is True
    built = build("update", report.mode, TEST_SCALE)
    variant = dataclasses.replace(
        built, trace=codegen.Rewriter(built.trace).apply(
            drop=report.removed_sites, key_map=report.key_map or None))
    assert program_digest(variant.trace) == report.program_after
    run = run_one("update", configuration("B"), TEST_SCALE, built=variant)
    assert report.crash_sweep["points"] == len(run.persist_log) + 1


def test_conservative_build_yields_bigger_wins():
    base = autotune_workload("update", "B", scale=TEST_SCALE)
    cons = autotune_workload("update", "B", scale=TEST_SCALE,
                             conservative=True)
    assert cons.mode == "dsb+cons"
    assert cons.status == OPTIMIZED
    assert cons.fences_removed > base.fences_removed
    assert cons.digest_match is True
    # The overfenced emission collapses back to (at most) the shipped
    # footprint, and the variant is strictly faster in simulation.
    assert (cons.speedup or 0.0) > 1.0


def test_edk_fold_narrows_key_set_under_ede():
    report = autotune_workload("update", "IQ", scale=TEST_SCALE)
    assert report.status == OPTIMIZED
    assert report.keys_after < report.keys_before
    assert report.key_map
    assert all(v != 0 for v in report.key_map.values())
    assert report.digest_match is True


def test_branchy_workload_is_skipped_not_mangled():
    report = autotune_workload("hazard", "IQ", scale=TEST_SCALE)
    assert report.status == SKIPPED
    assert "branches" in report.reason
    assert report.fences_removed == 0
    assert report.program_after == report.program_before


def test_publication_dmbs_removed_via_derived_obligations():
    """The publication kernel declares no framework obligations; the
    derived init->publish pairs alone license removing its DMBs."""
    report = autotune_workload("publication", "IQ", scale=TEST_SCALE,
                               conservative=True)
    assert report.status == OPTIMIZED
    assert report.fences_removed > 0
    assert report.digest_match is True


def test_budget_caps_trials():
    report = autotune_workload("update", "B", scale=TEST_SCALE, budget=2)
    assert report.budget == 2
    assert report.budget_used <= 2
    assert not report.exhaustive


def test_validate_off_skips_simulation():
    report = autotune_workload("update", "B", scale=TEST_SCALE,
                               validate=False)
    assert report.validated is False
    assert report.baseline is None and report.optimized is None
    assert report.digest_match is None
    # The static result is still emitted.
    assert report.status in (OPTIMIZED, PROVEN_MINIMAL)


def test_report_dict_is_json_shaped():
    import json

    report = autotune_workload("update", "WB", scale=TEST_SCALE)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["workload"] == "update"
    assert data["status"] == report.status
    assert data["ordering"]["removed"] == report.fences_removed
    assert data["validation"]["digest_match"] is True
    assert data["search"]["trials"]


def test_to_findings_projection():
    report = autotune_workload("update", "B", scale=TEST_SCALE)
    findings = to_findings(report)
    removed = [f for f in findings if f.check == "autotune-removed"]
    assert len(removed) == len(report.removed_sites)
    assert all(f.severity == INFO for f in removed)

    skipped = to_findings(autotune_workload("hazard", "B", scale=TEST_SCALE))
    assert [f.check for f in skipped] == ["autotune-skipped"]


# --- rewriter safety rails ----------------------------------------------------


class TestRewriterRails:
    def test_ordering_sites_exclude_tagged_instructions(self):
        import dataclasses

        tagged_fence = dataclasses.replace(ops.dmb_st(), comment="commit:0")
        trace = [ops.dsb_sy(), ops.store(2, 1, comment="data:0"),
                 tagged_fence, ops.halt()]
        assert codegen.ordering_sites(trace) == [0]

    def test_drop_refuses_tagged_ordering_site(self):
        import dataclasses

        tagged_fence = dataclasses.replace(ops.dsb_sy(), comment="commit:0")
        trace = [tagged_fence, ops.halt()]
        with pytest.raises(codegen.RewriteError, match="persist tag"):
            codegen.Rewriter(trace).apply(drop=[0])

    def test_drop_refuses_non_ordering_site(self):
        trace = [ops.store(2, 1), ops.dsb_sy(), ops.halt()]
        with pytest.raises(codegen.RewriteError, match="not a droppable"):
            codegen.Rewriter(trace).apply(drop=[0])

    def test_drop_refuses_out_of_range(self):
        with pytest.raises(codegen.RewriteError, match="out of range"):
            codegen.Rewriter([ops.halt()]).apply(drop=[5])

    def test_drop_refuses_branchy_programs(self):
        built = build("hazard", "dsb", TEST_SCALE)
        sites = codegen.ordering_sites(built.trace)
        assert sites
        with pytest.raises(codegen.RewriteError, match="branches"):
            codegen.Rewriter(built.trace).apply(drop=[sites[0]])

    def test_zero_key_cannot_be_remapped(self):
        trace = [ops.dc_cvap_ede(2, edk_def=1, edk_use=0), ops.halt()]
        with pytest.raises(codegen.RewriteError, match="zero key"):
            codegen.Rewriter(trace).apply(key_map={0: 3})
        with pytest.raises(codegen.RewriteError, match="zero key"):
            codegen.Rewriter(trace).apply(key_map={1: 0})

    def test_edits_return_fresh_list(self):
        trace = [ops.dsb_sy(), ops.dc_cvap_ede(2, edk_def=1, edk_use=0),
                 ops.halt()]
        out = codegen.Rewriter(trace).apply(drop=[0], key_map={1: 2})
        assert len(trace) == 3  # input untouched
        assert trace[1].edk_def == 1
        assert len(out) == 2
        assert out[0].edk_def == 2
