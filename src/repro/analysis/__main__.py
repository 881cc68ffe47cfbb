"""Command-line driver: ``python -m repro.analysis``.

Targets are workload names (analyzed per fence mode) or ``.s`` assembly
files.  With no targets, every registered workload is analyzed.

Exit status: 0 when no finding reaches the ``--fail-on`` threshold, 1
when one does, 2 on usage errors.

Examples::

    python -m repro.analysis                        # all workloads, all modes
    python -m repro.analysis update swap --modes ede
    python -m repro.analysis figures/fig4.s --convention
    python -m repro.analysis --format json --output analysis.json
    python -m repro.analysis --list-checks

``optimize`` turns the analyzer into an optimizing pass (the
proof-guided fence autotuner, :mod:`repro.analysis.autotune`)::

    python -m repro.analysis optimize update --configs B,IQ
    python -m repro.analysis optimize --conservative --format json
    python -m repro.analysis optimize update --budget 16 --fail-on-regression
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.findings import (
    CHECK_CATALOG,
    ERROR,
    SEVERITY_RANK,
    WARNING,
    at_or_above,
)
from repro.analysis.report import (
    AnalysisReport,
    analyze_program,
    analyze_workload,
    render,
)
from repro.core.edk import NUM_EDM_ENTRIES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Whole-program static analysis of EDE code: key-state "
        "checks, persist-ordering proofs, and the fence-redundancy linter.",
        epilog="The 'optimize' subcommand runs the proof-guided fence "
        "autotuner; see python -m repro.analysis optimize --help.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="workload names and/or .s assembly files (default: all workloads)",
    )
    parser.add_argument(
        "--modes",
        default=None,
        help="comma-separated fence modes for workload targets "
        "(default: dsb,dmb_st,ede,none)",
    )
    parser.add_argument(
        "--scale",
        choices=("test", "bench", "paper"),
        default="test",
        help="workload scale (default: test)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that makes the exit status nonzero "
        "(default: error)",
    )
    parser.add_argument(
        "--edm-capacity",
        type=int,
        default=NUM_EDM_ENTRIES,
        help="override the EDM capacity used by the pressure check",
    )
    parser.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the fence-redundancy linter",
    )
    parser.add_argument(
        "--convention",
        action="store_true",
        help="also run EDK calling-convention checks (assembly targets)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="include info-severity findings in text output",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="print the check catalog and exit",
    )
    parser.add_argument(
        "--env",
        action="store_true",
        help="print every REPRO_* environment knob and exit",
    )
    return parser


def _build_optimize_parser() -> argparse.ArgumentParser:
    from repro.analysis.autotune import DEFAULT_BUDGET

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis optimize",
        description="Proof-guided fence autotuner: search the fence "
        "placement and EDK allocation space, prune with the static "
        "prover, validate with the crash-consistency sweep, and emit "
        "the fastest proven-safe variant per workload x config.",
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        help="workload names (default: all registered workloads)",
    )
    parser.add_argument(
        "--configs",
        default="B,IQ,WB",
        help="comma-separated configuration names (default: B,IQ,WB — "
        "the safe-by-spec configurations)",
    )
    parser.add_argument(
        "--conservative",
        action="store_true",
        help="rebuild with the '+cons' overfenced emission first, so the "
        "search starts from PMDK-style redundant ordering",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max oracle trials per target (default: %(default)s)",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the dynamic oracle (simulation + crash sweep + digest); "
        "static proofs only",
    )
    parser.add_argument(
        "--scale",
        choices=("test", "bench", "paper"),
        default="test",
        help="workload scale (default: test)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 if any variant was reverted, mismatched the baseline "
        "digest, or ran slower than the baseline",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="include every candidate trial in text output",
    )
    return parser


def _resolve_scale(name: str):
    from repro.workloads import base as workloads_base

    return {
        "test": workloads_base.TEST_SCALE,
        "bench": workloads_base.BENCH_SCALE,
        "paper": workloads_base.PAPER_SCALE,
    }[name]


def _run_optimize(argv: List[str]) -> int:
    parser = _build_optimize_parser()
    args = parser.parse_args(argv)

    from repro.analysis import autotune
    from repro.analysis.report import AnalysisReport, to_sarif
    from repro.harness.configs import CONFIG_BY_NAME
    from repro.workloads import base as workloads_base

    known_workloads = set(workloads_base.workload_names())
    workloads = list(args.workloads) or sorted(known_workloads)
    unknown = [w for w in workloads if w not in known_workloads]
    if unknown:
        parser.error(
            "unknown workload(s) %s (have: %s)"
            % (", ".join(unknown), ", ".join(sorted(known_workloads)))
        )
    configs = [c.strip().upper() for c in args.configs.split(",") if c.strip()]
    bad = [c for c in configs if c not in CONFIG_BY_NAME]
    if bad:
        parser.error(
            "unknown config(s) %s (have: %s)"
            % (", ".join(bad), ", ".join(CONFIG_BY_NAME))
        )

    scale = _resolve_scale(args.scale)
    reports = []
    for workload in workloads:
        for config in configs:
            reports.append(
                autotune.autotune_workload(
                    workload,
                    config,
                    scale=scale,
                    conservative=args.conservative,
                    budget=args.budget,
                    validate=not args.no_validate,
                )
            )

    if args.format == "json":
        output = json.dumps(
            {"reports": [r.to_dict() for r in reports]}, indent=2, sort_keys=True
        )
    elif args.format == "sarif":
        shells = [
            AnalysisReport(
                target=r.workload,
                mode="%s/%s" % (r.config, r.mode),
                instructions=r.instructions_before,
                findings=autotune.to_findings(r),
            )
            for r in reports
        ]
        output = to_sarif(shells)
    else:
        output = autotune.render_text(reports, verbose=args.verbose)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
    else:
        print(output)

    if args.fail_on_regression:
        regressed = [
            r
            for r in reports
            if r.status == autotune.REVERTED
            or r.digest_match is False
            or (r.speedup is not None and r.speedup < 1.0)
        ]
        if regressed:
            print(
                "%d optimization target(s) regressed: %s"
                % (
                    len(regressed),
                    ", ".join(
                        "%s/%s (%s)" % (r.workload, r.config, r.status)
                        for r in regressed
                    ),
                ),
                file=sys.stderr,
            )
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.harness.cliutil import exit_on_bad_env, guard_broken_pipe

    exit_on_bad_env("repro.analysis")
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "optimize":
        return guard_broken_pipe(_run_optimize, argv[1:])
    return guard_broken_pipe(_run_analyze, argv)


def _run_analyze(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.env:
        from repro.harness.envutil import render_env_table

        print(render_env_table())
        return 0

    if args.list_checks:
        width = max(len(check) for check in CHECK_CATALOG)
        for check in sorted(CHECK_CATALOG):
            print("%-*s  %s" % (width, check, CHECK_CATALOG[check]))
        return 0

    from repro.nvmfw.codegen import ALL_MODES, CONS_SUFFIX, base_mode
    from repro.workloads import base as workloads_base

    known_workloads = set(workloads_base.workload_names())
    targets = list(args.targets)
    if not targets:
        targets = sorted(known_workloads)

    modes = list(ALL_MODES)
    if args.modes is not None:
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        unknown = [m for m in modes if base_mode(m) not in ALL_MODES]
        if unknown:
            parser.error(
                "unknown fence mode(s) %s (have: %s, optionally with the "
                "%r suffix)"
                % (", ".join(unknown), ", ".join(ALL_MODES), CONS_SUFFIX)
            )

    scale = _resolve_scale(args.scale)
    reports: List[AnalysisReport] = []
    for target in targets:
        if target in known_workloads:
            for mode in modes:
                reports.append(
                    analyze_workload(
                        target,
                        mode,
                        scale=scale,
                        edm_capacity=args.edm_capacity,
                        lint=not args.no_lint,
                    )
                )
        elif target.endswith(".s"):
            reports.append(
                analyze_program(
                    target,
                    edm_capacity=args.edm_capacity,
                    check_convention=args.convention,
                    lint=not args.no_lint,
                )
            )
        else:
            parser.error(
                "unknown target %r: not a workload (have: %s) and not a "
                ".s file" % (target, ", ".join(sorted(known_workloads)))
            )

    output = render(reports, args.format, verbose=args.verbose)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output + "\n")
    else:
        print(output)

    if args.fail_on == "never":
        return 0
    threshold = ERROR if args.fail_on == "error" else WARNING
    assert threshold in SEVERITY_RANK
    failing = [
        finding
        for report in reports
        for finding in at_or_above(report.findings, threshold)
    ]
    if failing:
        print(
            "%d finding(s) at or above %r severity" % (len(failing), args.fail_on),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
