"""Analysis aggregation: run every check over a target, render the result.

One :class:`AnalysisReport` bundles the findings of all checks over one
instruction sequence (a workload trace under one fence mode, or an
assembled program).  :func:`analyze_instructions` is the single engine
entry point; :func:`analyze_workload` and :func:`analyze_program` adapt
the two target kinds; :func:`render` serializes a list of reports to
text, JSON, or SARIF.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence

from repro.analysis.cfg import CfgError, build_cfg
from repro.analysis.fences import FenceReport, lint_fences
from repro.analysis.findings import (
    CHECK_CATALOG,
    ERROR,
    INFO,
    WARNING,
    Finding,
    count_by_severity,
)
from repro.analysis.keystate import KeyStateAnalysis
from repro.analysis.persist import (
    GUARANTEED,
    INDETERMINATE,
    VIOLATED,
    ObligationVerdict,
    PersistProver,
    summarize,
)
from repro.core.edk import NUM_EDM_ENTRIES
from repro.isa.instructions import Instruction
from repro.nvmfw.codegen import mode_safe_by_spec

#: Tool identity used in SARIF output.
TOOL_NAME = "repro-analysis"
TOOL_VERSION = "1.0"


@dataclasses.dataclass
class AnalysisReport:
    """Everything the analyzer decided about one target."""

    target: str
    mode: Optional[str]
    instructions: int
    findings: List[Finding]
    verdicts: List[ObligationVerdict] = dataclasses.field(default_factory=list)
    fence_report: Optional[FenceReport] = None

    @property
    def counts(self) -> Dict[str, int]:
        return count_by_severity(self.findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def verdict_counts(self) -> Dict[str, int]:
        return summarize(self.verdicts)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "mode": self.mode,
            "instructions": self.instructions,
            "counts": self.counts,
            "findings": [f.to_dict() for f in self.findings],
            "obligations": {
                "counts": self.verdict_counts,
                "verdicts": [v.to_dict() for v in self.verdicts],
            },
            "fences": (
                self.fence_report.to_dict() if self.fence_report is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisReport":
        """Rebuild the finding-level view from :meth:`to_dict` output.

        Obligation verdicts and the fence report carry non-serializable
        members (the obligations themselves) and round-trip as counts
        only; the findings — what gating decisions use — round-trip
        exactly.
        """
        return cls(
            target=data["target"],
            mode=data.get("mode"),
            instructions=data["instructions"],
            findings=[Finding.from_dict(f) for f in data["findings"]],
        )


def _verdict_finding(verdict: ObligationVerdict, safe_by_spec: bool) -> Optional[Finding]:
    obligation = verdict.obligation
    where = verdict.second_index if verdict.second_index is not None else 0
    if verdict.verdict == VIOLATED:
        severity = ERROR if safe_by_spec else INFO
        qualifier = (
            "" if safe_by_spec else " (expected: this mode is unsafe by specification)"
        )
        return Finding(
            severity,
            where,
            "persist ordering statically violated: %s %s -> %s: %s%s"
            % (
                obligation.kind,
                obligation.first_tag,
                obligation.second_tag,
                verdict.reason,
                qualifier,
            ),
            "persist-ordering",
        )
    if verdict.verdict == GUARANTEED:
        return None
    return Finding(
        INFO,
        where,
        "persist ordering indeterminate: %s %s -> %s: %s (the dynamic "
        "checker remains the authority)"
        % (obligation.kind, obligation.first_tag, obligation.second_tag, verdict.reason),
        "persist-ordering",
    )


def analyze_instructions(
    instructions: Sequence[Instruction],
    labels: Optional[Dict[str, int]] = None,
    target: str = "<sequence>",
    mode: Optional[str] = None,
    obligations: Optional[Sequence] = None,
    safe_by_spec: Optional[bool] = None,
    edm_capacity: int = NUM_EDM_ENTRIES,
    check_convention: bool = False,
    lint: bool = True,
) -> AnalysisReport:
    """Run every static check over one instruction sequence."""
    if safe_by_spec is None:
        safe_by_spec = mode_safe_by_spec(mode) if mode else True
    try:
        cfg = build_cfg(instructions, labels)
    except CfgError as exc:
        return AnalysisReport(
            target=target,
            mode=mode,
            instructions=len(instructions),
            findings=[Finding(ERROR, exc.index, str(exc), "cfg")],
        )

    analysis = KeyStateAnalysis(instructions, cfg, edm_capacity)
    findings = list(analysis.findings)

    verdicts: List[ObligationVerdict] = []
    if obligations:
        prover = PersistProver(instructions, analysis)
        verdicts = prover.prove_all(obligations)
        for verdict in verdicts:
            finding = _verdict_finding(verdict, safe_by_spec)
            if finding is not None:
                findings.append(finding)

    fence_report: Optional[FenceReport] = None
    if lint:
        fence_findings, fence_report = lint_fences(instructions, analysis)
        findings.extend(fence_findings)

    if check_convention:
        from repro.core import calling_convention

        for violation in calling_convention.check_caller(instructions):
            findings.append(
                Finding(ERROR, violation.index, str(violation), "calling-convention")
            )
        for violation in calling_convention.check_callee(instructions):
            findings.append(
                Finding(ERROR, violation.index, str(violation), "calling-convention")
            )

    findings.sort(key=lambda f: f.index)
    return AnalysisReport(
        target=target,
        mode=mode,
        instructions=len(instructions),
        findings=findings,
        verdicts=verdicts,
        fence_report=fence_report,
    )


def analyze_workload(
    name: str,
    mode: str,
    scale=None,
    edm_capacity: int = NUM_EDM_ENTRIES,
    lint: bool = True,
) -> AnalysisReport:
    """Build one workload under one fence mode and analyze its trace."""
    from repro.workloads import base as workloads_base

    if scale is None:
        scale = workloads_base.TEST_SCALE
    built = workloads_base.build(name, mode, scale)
    return analyze_built(
        built, target=name, mode=mode, edm_capacity=edm_capacity, lint=lint
    )


def analyze_built(
    built,
    target: str,
    mode: str,
    edm_capacity: int = NUM_EDM_ENTRIES,
    lint: bool = True,
) -> AnalysisReport:
    """Analyze an already-built workload (its trace plus obligations)."""
    return analyze_instructions(
        built.trace,
        target=target,
        mode=mode,
        obligations=built.obligations,
        edm_capacity=edm_capacity,
        lint=lint,
    )


def analyze_program(
    path: str,
    edm_capacity: int = NUM_EDM_ENTRIES,
    check_convention: bool = False,
    lint: bool = True,
) -> AnalysisReport:
    """Assemble a ``.s`` file and analyze it.

    Persist tags attached with ``;@`` comments (``;@ log:0``) imply the
    standard obligations (:func:`repro.analysis.persist.derive_obligations`),
    so assembly fixtures exercise the persist-ordering prover too; an
    untagged file exercises the key-state and fence checks only.
    """
    from repro.analysis.persist import derive_obligations
    from repro.isa.assembler import AssemblerError, assemble

    with open(path, "r") as handle:
        source = handle.read()
    try:
        program = assemble(source)
    except AssemblerError as exc:
        return AnalysisReport(
            target=path,
            mode=None,
            instructions=0,
            findings=[Finding(ERROR, exc.line_number, str(exc), "cfg")],
        )
    return analyze_instructions(
        program.instructions,
        labels=program.labels,
        target=path,
        obligations=derive_obligations(program.instructions),
        edm_capacity=edm_capacity,
        check_convention=check_convention,
        lint=lint,
    )


# --- rendering ---------------------------------------------------------------


def reports_to_dict(reports: Sequence[AnalysisReport]) -> dict:
    totals = {ERROR: 0, WARNING: 0, INFO: 0}
    for report in reports:
        for severity, count in report.counts.items():
            totals[severity] = totals.get(severity, 0) + count
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "summary": {
            "targets": len(reports),
            "counts": totals,
        },
        "reports": [report.to_dict() for report in reports],
    }


def to_json(reports: Sequence[AnalysisReport]) -> str:
    return json.dumps(reports_to_dict(reports), indent=2, sort_keys=True)


_SARIF_LEVELS = {ERROR: "error", WARNING: "warning", INFO: "note"}


def to_sarif(reports: Sequence[AnalysisReport]) -> str:
    """Render findings as a single-run SARIF 2.1.0 log."""
    rules = [
        {"id": check, "shortDescription": {"text": description}}
        for check, description in sorted(CHECK_CATALOG.items())
    ]
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results = []
    for report in reports:
        location_name = (
            "%s@%s" % (report.target, report.mode) if report.mode else report.target
        )
        for finding in report.findings:
            results.append(
                {
                    "ruleId": finding.check,
                    "ruleIndex": rule_index.get(finding.check, -1),
                    "level": _SARIF_LEVELS.get(finding.severity, "note"),
                    "message": {"text": finding.message},
                    "locations": [
                        {
                            "logicalLocations": [
                                {
                                    "name": location_name,
                                    "fullyQualifiedName": "%s:%d"
                                    % (location_name, finding.index),
                                }
                            ]
                        }
                    ],
                }
            )
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)


def to_text(reports: Sequence[AnalysisReport], verbose: bool = False) -> str:
    lines: List[str] = []
    for report in reports:
        title = (
            "%s [%s]" % (report.target, report.mode) if report.mode else report.target
        )
        counts = report.counts
        lines.append(
            "== %s: %d instructions, %d errors, %d warnings, %d infos"
            % (
                title,
                report.instructions,
                counts.get(ERROR, 0),
                counts.get(WARNING, 0),
                counts.get(INFO, 0),
            )
        )
        if report.verdicts:
            vc = report.verdict_counts
            lines.append(
                "   obligations: %d guaranteed, %d indeterminate, %d violated"
                % (vc[GUARANTEED], vc[INDETERMINATE], vc[VIOLATED])
            )
        if report.fence_report is not None and report.fence_report.total_full_fences:
            fr = report.fence_report
            lines.append(
                "   fences: %d/%d full fences redundant (%.0f%% eliminable)"
                % (
                    fr.redundant_count,
                    fr.total_full_fences,
                    100.0 * fr.eliminable_fraction,
                )
            )
        for finding in report.findings:
            if verbose or finding.severity != INFO:
                lines.append("   %s  (%s)" % (finding, finding.check))
    return "\n".join(lines)


def render(reports: Sequence[AnalysisReport], fmt: str, verbose: bool = False) -> str:
    if fmt == "json":
        return to_json(reports)
    if fmt == "sarif":
        return to_sarif(reports)
    return to_text(reports, verbose=verbose)
