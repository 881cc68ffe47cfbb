"""Markdown report generation for experiment results.

Turns the experiment-driver result objects into the markdown tables used
by EXPERIMENTS.md, so reports can be regenerated after parameter changes:

    python -m repro.harness.reporting            # default bench scale
    REPRO_BENCH_OPS=50 python -m repro.harness.reporting
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.harness.configs import CONFIGURATIONS
from repro.harness.envutil import knob
from repro.harness.experiments import (
    APPLICATIONS,
    Fig9Result,
    Fig10Result,
    Fig11Result,
    SafetyResult,
    fig9_execution_time,
    fig10_pending_writes,
    fig11_issue_distribution,
    safety_matrix,
)
from repro.harness.runner import RunResult, run_matrix
from repro.harness.supervisor import MatrixReport
from repro.workloads import BENCH_SCALE, Scale

_NAMES = [c.name for c in CONFIGURATIONS]


def _table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def fig9_markdown(result: Fig9Result) -> str:
    rows = []
    for app in result.normalized:
        rows.append([app] + ["%.3f" % result.normalized[app][n]
                             for n in _NAMES])
    rows.append(["**geomean (measured)**"]
                + ["**%.3f**" % result.geomean_normalized[n] for n in _NAMES])
    rows.append(["**geomean (paper)**"]
                + ["**%.2f**" % result.paper_geomean[n] for n in _NAMES])
    return _table(["app"] + _NAMES, rows)


def fig10_markdown(result: Fig10Result) -> str:
    rows = [
        [app] + ["%.1f" % result.mean_pending[app][n] for n in _NAMES]
        for app in result.mean_pending
    ]
    return _table(["app"] + _NAMES, rows)


def fig11_markdown(result: Fig11Result) -> str:
    rows = [
        ["measured IPC"] + ["%.3f" % result.mean_ipc[n] for n in _NAMES],
        ["paper IPC"] + ["%.2f" % result.paper_ipc[n] for n in _NAMES],
    ]
    return _table([""] + _NAMES, rows)


def safety_markdown(result: SafetyResult) -> str:
    rows = [
        [app] + [result.verdicts[app][n] for n in _NAMES]
        for app in result.verdicts
    ]
    return _table(["app"] + _NAMES, rows)


def supervision_markdown(report: MatrixReport) -> str:
    """Render a :class:`~repro.harness.supervisor.MatrixReport` — the
    fault-tolerant engine's account of how the matrix actually ran — as
    a markdown summary table plus a per-group table."""
    summary = _table(
        ["groups", "retries", "pool respawns", "cells from cache",
         "wall time", "mode"],
        [[str(len(report.groups)), str(report.total_retries),
          str(report.pool_respawns), str(report.resumed_from_cache),
          "%.2fs" % report.wall_time_s,
          "serial (degraded)" if report.degraded_to_serial
          else "parallel"]])
    rows = []
    for group in report.groups:
        causes = "; ".join(group.failure_causes) or "—"
        rows.append([group.group,
                     "ok" if group.succeeded else "**FAILED**",
                     str(len(group.attempts)), str(group.retries), causes])
    groups = _table(["group", "status", "attempts", "retries",
                     "failure causes"], rows)
    return summary + "\n\n" + groups


def full_report(scale: Scale = BENCH_SCALE,
                results: Dict[str, Dict[str, RunResult]] = None) -> str:
    """Run (or reuse) the full matrix; return the complete markdown.

    When the matrix runs through the supervised parallel engine, the
    supervisor's :class:`MatrixReport` is appended as a "Supervised
    execution" section so regenerated reports record retries, pool
    respawns and cache resumption alongside the measurements."""
    from repro.harness.parallel import last_matrix_report

    before = last_matrix_report()
    if results is None:
        results = run_matrix(list(APPLICATIONS), list(CONFIGURATIONS), scale)
    supervision = last_matrix_report()
    if supervision is before:
        supervision = None  # matrix was reused or ran serially
    sections: List[str] = []
    sections.append("# Measured results (%d ops/txn x %d txns)"
                    % (scale.ops_per_txn, scale.txns))
    sections.append("## Figure 9 — normalized execution time\n\n"
                    + fig9_markdown(
                        fig9_execution_time(scale, results=results)))
    sections.append("## Figure 10 — mean pending NVM writes\n\n"
                    + fig10_markdown(
                        fig10_pending_writes(scale, results=results)))
    sections.append("## Figure 11 — IPC\n\n"
                    + fig11_markdown(
                        fig11_issue_distribution(scale, results=results)))
    sections.append("## Crash-consistency verdicts\n\n"
                    + safety_markdown(safety_matrix(scale, results=results)))
    if supervision is not None:
        sections.append("## Supervised execution\n\n"
                        + supervision_markdown(supervision))
    return "\n\n".join(sections) + "\n"


def main() -> None:
    scale = Scale(ops_per_txn=knob("REPRO_BENCH_OPS"),
                  txns=knob("REPRO_BENCH_TXNS"))
    print(full_report(scale))


if __name__ == "__main__":
    main()
