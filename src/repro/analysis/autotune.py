"""Proof-guided fence autotuner: the analyzer as an optimizing pass.

PR 4 built the machinery to *prove* that most fences are removable under
EDE (:mod:`repro.analysis.persist`, :mod:`repro.analysis.fences`); this
module closes the loop.  For one workload under one configuration it
searches the (fence placement x EDK allocation) space:

1. **Candidates** come from the redundant-fence linter (already proven
   by the may-set analysis) plus every remaining ordering instruction
   (full fences, ``DMB ST``, waits), trailing sites first — the
   end-of-transaction barrier of the *final* transaction has no
   successor to order against and is the canonical removable fence.
2. **The static oracle** rejects a candidate unless (a) no persist
   obligation's verdict regresses relative to the baseline program and
   (b) no new warning-or-worse finding appears.  Obligations include
   *search obligations* the autotuner derives itself — ``commit:N``
   must persist before every persist of transaction ``N+1`` (the
   inter-transaction edge the emitted trailing barriers exist to
   enforce), and ``init -> publish`` for the volatile publication
   kernel — so a barrier whose ordering work is real can never be
   dropped, while the final transaction's trailing barrier can.
   Search obligations feed only the static oracle; the dynamic checker
   keeps validating exactly the framework-declared set.  The oracle
   (:mod:`repro.analysis.oracle`) keeps the accepted program's per-site
   state, so a trial re-runs the analyses only over the window its drop
   changes and re-proves only the obligations that window touches.
3. **EDK reallocation** then tries folding the used key set into
   narrower widths (8, 4, 2) through the same oracle: a fold that
   aliases a live key either regresses a proven EDE edge or trips the
   producer-overwrite check, and is rejected.
4. **The dynamic oracle** simulates the surviving variant and accepts
   it only if the consistency checker stays clean, the crash-injection
   sweep recovers at every crash point, and the recovered-state
   digest is bit-identical to the unoptimized serial run.  A variant
   that fails falls back (drop the key map, then revert entirely).

Everything is wrapped in a machine-readable
:class:`OptimizationReport`; ``python -m repro.analysis optimize`` and
the ``optimize`` service job are thin shells around
:func:`autotune_workload`.

The one finding class exempt from oracle rule (b) is ``dead-key``:
removing a wait legitimately orphans the key it consumed, and an
orphaned key *enforces* nothing — whether the ordering it used to
enforce is still needed is exactly what the obligation verdicts decide.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fences import lint_fences
from repro.analysis.findings import INFO, WARNING, Finding
from repro.analysis.keystate import FULL_FENCES
from repro.consistency.obligations import Obligation
from repro.core.edk import ZERO_KEY
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.nvmfw import codegen

#: The paper's core clock (Table I); converts cycles to wall time for kIPS.
CLOCK_HZ = 3_000_000_000

#: Search-obligation kinds.  These exist only inside the autotuner's
#: static oracle — :func:`repro.consistency.checker.check_run` rejects
#: unknown kinds by design, so they must never reach a dynamic run.
COMMIT_BEFORE_NEXT_TXN = "commit-before-next-txn"
INIT_BEFORE_PUBLISH = "init-before-publish"

#: Report statuses.
OPTIMIZED = "optimized"
PROVEN_MINIMAL = "proven-minimal"
BUDGET_EXHAUSTED = "budget-exhausted"
SKIPPED = "skipped"
REVERTED = "reverted"

#: Oracle trials per target when no positive budget is given.
DEFAULT_BUDGET = 64

# --- report types -------------------------------------------------------------


@dataclasses.dataclass
class CandidateTrial:
    """One candidate the search evaluated, and the oracle's ruling."""

    kind: str  # "drop" or "keymap"
    detail: str
    accepted: bool
    reason: str
    verdicts: Dict[str, int]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class RunMetrics:
    """The timing-facing slice of one simulation."""

    cycles: int
    instructions: int
    kips: float
    digest: Optional[str]
    consistent: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class OptimizationReport:
    """Machine-readable outcome of one autotuning run."""

    workload: str
    config: str
    mode: str
    scale: Dict[str, int]
    status: str
    reason: str
    instructions_before: int
    instructions_after: int
    ordering_before: Dict[str, int]
    ordering_after: Dict[str, int]
    removed_sites: List[int]
    linter_redundant: List[int]
    key_map: Dict[int, int]
    keys_before: int
    keys_after: int
    trials: List[CandidateTrial]
    budget: int
    budget_used: int
    exhaustive: bool
    obligations_before: Dict[str, int]
    obligations_after: Dict[str, int]
    program_before: str
    program_after: str
    validated: bool
    digest_match: Optional[bool]
    crash_sweep: Dict[str, object]
    baseline: Optional[RunMetrics] = None
    optimized: Optional[RunMetrics] = None

    @property
    def fences_removed(self) -> int:
        return sum(self.ordering_before.values()) - sum(self.ordering_after.values())

    @property
    def speedup(self) -> Optional[float]:
        if not self.baseline or not self.optimized or not self.optimized.cycles:
            return None
        return self.baseline.cycles / self.optimized.cycles

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "config": self.config,
            "mode": self.mode,
            "scale": self.scale,
            "status": self.status,
            "reason": self.reason,
            "instructions": {
                "before": self.instructions_before,
                "after": self.instructions_after,
            },
            "ordering": {
                "before": self.ordering_before,
                "after": self.ordering_after,
                "removed": self.fences_removed,
                "removed_sites": list(self.removed_sites),
                "linter_redundant": list(self.linter_redundant),
            },
            "edk": {
                "key_map": {str(k): v for k, v in sorted(self.key_map.items())},
                "keys_before": self.keys_before,
                "keys_after": self.keys_after,
            },
            "search": {
                "budget": self.budget,
                "budget_used": self.budget_used,
                "exhaustive": self.exhaustive,
                "trials": [t.to_dict() for t in self.trials],
            },
            "obligations": {
                "before": self.obligations_before,
                "after": self.obligations_after,
            },
            "program": {
                "before": self.program_before,
                "after": self.program_after,
            },
            "validation": {
                "validated": self.validated,
                "digest_match": self.digest_match,
                "crash_sweep": self.crash_sweep,
                "baseline": self.baseline.to_dict() if self.baseline else None,
                "optimized": self.optimized.to_dict() if self.optimized else None,
                "speedup": self.speedup,
            },
        }


# --- search obligations -------------------------------------------------------


def _tag_number(tag: str) -> int:
    try:
        return int(tag.split(":", 1)[1])
    except (IndexError, ValueError):
        return -1


def derive_search_obligations(
    instructions: Sequence[Instruction],
) -> List[Obligation]:
    """Orderings the emitted barriers exist to enforce, from persist tags.

    For transactional workloads: ``commit:N`` must persist before every
    ``log``/``data``/``init`` persist of the *next* transaction (the
    framework's trailing barrier enforces exactly this; the obligation
    makes its removal provably unsafe for every transaction but the
    last).  For the volatile publication kernel: ``init:N`` must order
    before ``publish:N``.  These feed only the static prover — never
    :func:`repro.consistency.checker.check_run`, which rejects unknown
    obligation kinds.
    """
    tags = [
        (site, inst.comment)
        for site, inst in enumerate(instructions)
        if inst.comment is not None
    ]
    obligations: List[Obligation] = []
    current_commit: Optional[str] = None
    for _site, tag in tags:
        kind = tag.split(":", 1)[0]
        if kind == "commit":
            current_commit = tag
        elif kind in ("log", "data", "init") and current_commit is not None:
            obligations.append(
                Obligation(
                    kind=COMMIT_BEFORE_NEXT_TXN,
                    first_tag=current_commit,
                    second_tag=tag,
                    op_id=_tag_number(tag),
                    txn_id=_tag_number(current_commit),
                )
            )
    publishes = {tag for _s, tag in tags if tag.startswith("publish:")}
    for _site, tag in tags:
        if tag.startswith("init:"):
            publish = "publish:%s" % tag.split(":", 1)[1]
            if publish in publishes:
                obligations.append(
                    Obligation(
                        kind=INIT_BEFORE_PUBLISH,
                        first_tag=tag,
                        second_tag=publish,
                        op_id=_tag_number(tag),
                        txn_id=-1,
                    )
                )
    return obligations


# --- program accounting -------------------------------------------------------


def ordering_breakdown(instructions: Sequence[Instruction]) -> Dict[str, int]:
    """Count ordering instructions by class (full fences / DMB ST / waits)."""
    counts = {"full_fences": 0, "dmb_st": 0, "waits": 0}
    for inst in instructions:
        if inst.opcode in FULL_FENCES:
            counts["full_fences"] += 1
        elif inst.opcode is Opcode.DMB_ST:
            counts["dmb_st"] += 1
        elif inst.opcode in (Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS):
            counts["waits"] += 1
    return counts


def used_keys(instructions: Sequence[Instruction]) -> List[int]:
    keys = set()
    for inst in instructions:
        if inst.edk_def != ZERO_KEY:
            keys.add(inst.edk_def)
        if inst.edk_use != ZERO_KEY:
            keys.add(inst.edk_use)
    return sorted(keys)


def program_digest(instructions: Sequence[Instruction]) -> str:
    """Content hash of an instruction stream (the program fingerprint)."""
    hasher = hashlib.sha256()
    for inst in instructions:
        hasher.update(repr(inst).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def state_digest(built, persist_log) -> str:
    """Digest of the recovered NVM state plus the architectural result.

    Replays the full persist log, runs undo recovery, and hashes the
    recovered image together with the workload's final memory and
    transaction count.  Deliberately timing-independent: an optimized
    variant must produce a digest bit-identical to the serial baseline,
    however differently its persists were scheduled.
    """
    from repro.consistency.crash_sim import CrashInjector

    injector = CrashInjector(built, persist_log)
    image = injector.recover(injector.image_at(len(persist_log)))
    payload = (
        sorted(image.items()),
        sorted(built.final_memory.items()),
        built.txns,
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _metrics(run, digest: Optional[str]) -> RunMetrics:
    kips = run.stats.retired * CLOCK_HZ / run.cycles / 1e3 if run.cycles else 0.0
    return RunMetrics(
        cycles=run.cycles,
        instructions=run.stats.retired,
        kips=kips,
        digest=digest,
        consistent=run.consistency.observed_safe,
    )


# --- the autotuner ------------------------------------------------------------


def _skip_report(
    workload: str,
    config,
    mode: str,
    scale,
    trace: Sequence[Instruction],
    reason: str,
    budget: int,
) -> OptimizationReport:
    breakdown = ordering_breakdown(trace)
    digest = program_digest(trace)
    keys = used_keys(trace)
    return OptimizationReport(
        workload=workload,
        config=config.name,
        mode=mode,
        scale={"ops_per_txn": scale.ops_per_txn, "txns": scale.txns,
               "seed": scale.seed},
        status=SKIPPED,
        reason=reason,
        instructions_before=len(trace),
        instructions_after=len(trace),
        ordering_before=breakdown,
        ordering_after=dict(breakdown),
        removed_sites=[],
        linter_redundant=[],
        key_map={},
        keys_before=len(keys),
        keys_after=len(keys),
        trials=[],
        budget=budget,
        budget_used=0,
        exhaustive=True,
        obligations_before={},
        obligations_after={},
        program_before=digest,
        program_after=digest,
        validated=False,
        digest_match=None,
        crash_sweep={"supported": False, "points": 0, "consistent": None},
    )


def autotune_workload(
    workload: str,
    config_name: str,
    scale=None,
    conservative: bool = False,
    budget: Optional[int] = None,
    validate: bool = True,
    params=None,
) -> OptimizationReport:
    """Search, prove, validate: optimize one workload under one config.

    ``conservative`` rebuilds the workload with the ``+cons`` fence-mode
    suffix (PMDK-style overfenced emission) so the search starts from a
    program with genuinely redundant ordering.  ``budget`` caps oracle
    trials (``None`` or ``<= 0`` means :data:`DEFAULT_BUDGET`);
    ``validate`` turns the dynamic oracle on or off.
    """
    from repro.analysis.oracle import StaticOracle
    from repro.harness.configs import DEFAULT_PARAMS, configuration
    from repro.workloads import base as workload_base

    config = configuration(config_name)
    if scale is None:
        scale = workload_base.TEST_SCALE
    if params is None:
        params = DEFAULT_PARAMS
    if budget is None or budget <= 0:
        budget = DEFAULT_BUDGET

    mode = (
        codegen.conservative_mode(config.fence_mode)
        if conservative
        else config.fence_mode
    )
    built = workload_base.build(workload, mode, scale)
    trace = built.trace

    if any(inst.is_branch for inst in trace):
        return _skip_report(
            workload, config, mode, scale, trace, budget=budget,
            reason="trace contains branches; dropping instructions would "
                   "shift targets",
        )

    obligations = list(built.obligations) + derive_search_obligations(trace)
    if not obligations:
        return _skip_report(
            workload, config, mode, scale, trace, budget=budget,
            reason="no persist or publication obligations to prove against",
        )

    # The linter reads the baseline once; the static oracle keeps the
    # accepted program's per-site state and re-proves each trial's window.
    _fence_findings, fence_report = lint_fences(trace)
    oracle = StaticOracle(trace, obligations)
    base_static = oracle.state()
    rewriter = codegen.Rewriter(trace)

    sites = codegen.ordering_sites(trace)
    site_set = set(sites)
    linter_redundant = [s for s in fence_report.redundant_sites if s in site_set]
    redundant_set = set(linter_redundant)
    candidates = list(linter_redundant)
    candidates.extend(s for s in reversed(sites) if s not in redundant_set)

    trials: List[CandidateTrial] = []
    accepted: List[int] = []
    used = 0
    exhausted_candidates = True
    for site in candidates:
        if used >= budget:
            exhausted_candidates = False
            break
        used += 1
        detail = "site %d (%s)" % (site, trace[site].opcode.name)
        try:
            rewriter.check(drop=accepted + [site])
        except codegen.RewriteError as exc:
            trials.append(CandidateTrial("drop", detail, False, str(exc), {}))
            continue
        oracle.drop(site)
        ok, reason = oracle.judge(base_static)
        trials.append(
            CandidateTrial("drop", detail, ok, reason, oracle.verdict_counts())
        )
        if ok:
            oracle.commit()
            accepted.append(site)
        else:
            oracle.rollback()

    # EDK reallocation: fold the used key set into narrower widths.  The
    # narrowest statically-safe fold wins; aliasing a live key regresses
    # a proven EDE edge or trips producer-overwrite, so the same oracle
    # applies, as a full pass with the keys renamed.
    dropped = set(accepted)
    keys = used_keys([inst for s, inst in enumerate(trace) if s not in dropped])
    key_map: Dict[int, int] = {}
    fold_counts: Dict[str, int] = {}
    for width in (8, 4, 2):
        if len(keys) <= width:
            continue
        if used >= budget:
            exhausted_candidates = False
            break
        used += 1
        cand_map = {k: (i % width) + 1 for i, k in enumerate(keys)}
        detail = "fold %d keys into width %d" % (len(keys), width)
        rewriter.check(drop=accepted, key_map=cand_map)
        fold = StaticOracle(trace, obligations, dropped=accepted,
                            key_map=cand_map)
        ok, reason = fold.judge(base_static)
        trials.append(
            CandidateTrial("keymap", detail, ok, reason, fold.verdict_counts())
        )
        if ok:
            key_map = cand_map  # keep narrowing; narrowest safe fold wins
            fold_counts = fold.verdict_counts()

    # Fall-back ladder for the dynamic oracle: full variant, then without
    # the key map, then full revert.
    attempts: List[Tuple[List[int], Dict[int, int]]] = [(accepted, key_map)]
    if key_map:
        attempts.append((accepted, {}))
    if accepted:
        attempts.append(([], {}))

    final_drops: List[int] = []
    final_map: Dict[int, int] = {}
    final_trace = trace
    baseline_metrics: Optional[RunMetrics] = None
    optimized_metrics: Optional[RunMetrics] = None
    digest_match: Optional[bool] = None
    crash_sweep: Dict[str, object] = {
        "supported": False, "points": 0, "consistent": None,
    }
    reverted = False

    if validate:
        from repro.consistency.crash_sim import CrashInjector
        from repro.harness.runner import run_one

        base_run = run_one(workload, config, scale, params=params, built=built)
        base_digest = state_digest(built, base_run.persist_log)
        baseline_metrics = _metrics(base_run, base_digest)

        chosen = None
        for drops, kmap in attempts:
            if not drops and not kmap:
                break  # pure revert: the baseline itself
            opt_trace = rewriter.apply(drop=drops, key_map=kmap or None)
            variant = dataclasses.replace(built, trace=opt_trace)
            opt_run = run_one(workload, config, scale, params=params, built=variant)
            opt_digest = state_digest(variant, opt_run.persist_log)
            sweep = {"supported": False, "points": 0, "consistent": None}
            injector = CrashInjector(variant, opt_run.persist_log)
            sweep_ok = True
            if injector.supports_recovery_validation:
                reports = injector.validate_many()
                sweep_ok = all(r.consistent for r in reports)
                sweep = {
                    "supported": True,
                    "points": len(reports),
                    "consistent": sweep_ok,
                }
            ordering_ok = (
                opt_run.consistency.observed_safe
                if config.safe_by_spec
                else len(opt_run.consistency.violations)
                <= len(base_run.consistency.violations)
            )
            if opt_digest == base_digest and sweep_ok and ordering_ok:
                chosen = (drops, kmap, opt_trace, opt_run, opt_digest, sweep)
                break

        if chosen is not None:
            (final_drops, final_map, final_trace, opt_run, opt_digest,
             crash_sweep) = chosen
            optimized_metrics = _metrics(opt_run, opt_digest)
            digest_match = True
            reverted = (final_drops, final_map) != (accepted, key_map)
        else:
            reverted = bool(accepted or key_map)
            digest_match = False if reverted else None
    else:
        final_drops, final_map = accepted, key_map
        final_trace = rewriter.apply(drop=final_drops, key_map=final_map or None)

    if final_drops or final_map:
        status = OPTIMIZED
        reason = (
            "%d ordering instruction(s) removed, %d EDK(s) reallocated; "
            "every obligation verdict preserved"
            % (len(final_drops), len(final_map))
        )
        if reverted:
            reason += " (wider variant failed dynamic validation)"
    elif reverted:
        status = REVERTED
        reason = (
            "statically accepted candidate failed dynamic validation; "
            "baseline program retained"
        )
    elif exhausted_candidates:
        status = PROVEN_MINIMAL
        reason = (
            "every ordering instruction was tried; each removal would "
            "regress a proven obligation"
        )
    else:
        status = BUDGET_EXHAUSTED
        reason = "trial budget %d exhausted before covering all candidates" % budget

    # The final variant is one the oracle already holds: the accepted key
    # fold, the accepted drops, or the baseline.
    if final_map:
        obligations_after = fold_counts
    elif final_drops:
        obligations_after = oracle.verdict_counts()
    else:
        obligations_after = dict(base_static.verdict_counts)
    return OptimizationReport(
        workload=workload,
        config=config.name,
        mode=mode,
        scale={"ops_per_txn": scale.ops_per_txn, "txns": scale.txns,
               "seed": scale.seed},
        status=status,
        reason=reason,
        instructions_before=len(trace),
        instructions_after=len(final_trace),
        ordering_before=ordering_breakdown(trace),
        ordering_after=ordering_breakdown(final_trace),
        removed_sites=sorted(final_drops),
        linter_redundant=list(linter_redundant),
        key_map=dict(final_map),
        keys_before=len(used_keys(trace)),
        keys_after=len(used_keys(final_trace)),
        trials=trials,
        budget=budget,
        budget_used=used,
        exhaustive=exhausted_candidates,
        obligations_before=base_static.verdict_counts,
        obligations_after=obligations_after,
        program_before=program_digest(trace),
        program_after=program_digest(final_trace),
        validated=validate and optimized_metrics is not None,
        digest_match=digest_match,
        crash_sweep=crash_sweep,
        baseline=baseline_metrics,
        optimized=optimized_metrics,
    )


# --- rendering helpers --------------------------------------------------------


def to_findings(report: OptimizationReport) -> List[Finding]:
    """Project an optimization report onto the finding model (for SARIF)."""
    findings: List[Finding] = []
    if report.status == SKIPPED:
        findings.append(Finding(INFO, 0, report.reason, "autotune-skipped"))
    elif report.status == REVERTED:
        findings.append(Finding(WARNING, 0, report.reason, "autotune-reverted"))
    for site in report.removed_sites:
        findings.append(
            Finding(
                INFO,
                site,
                "ordering instruction at %d removed: proven redundant by the "
                "persist prover and validated by the crash sweep" % site,
                "autotune-removed",
            )
        )
    return findings


def render_text(reports: Sequence[OptimizationReport], verbose: bool = False) -> str:
    lines: List[str] = []
    for report in reports:
        lines.append(
            "== %s [%s -> %s]: %s"
            % (report.workload, report.config, report.mode, report.status)
        )
        lines.append("   %s" % report.reason)
        before = sum(report.ordering_before.values())
        after = sum(report.ordering_after.values())
        lines.append(
            "   ordering: %d -> %d (%d removed; linter flagged %d)"
            % (before, after, before - after, len(report.linter_redundant))
        )
        if report.key_map:
            lines.append(
                "   edk: %d -> %d keys (%d remapped)"
                % (report.keys_before, report.keys_after, len(report.key_map))
            )
        if report.baseline and report.optimized:
            lines.append(
                "   kIPS: %.1f -> %.1f (speedup %.3fx); digest %s"
                % (
                    report.baseline.kips,
                    report.optimized.kips,
                    report.speedup or 0.0,
                    "bit-identical" if report.digest_match else "MISMATCH",
                )
            )
            sweep = report.crash_sweep
            if sweep.get("supported"):
                lines.append(
                    "   crash sweep: %d points, %s"
                    % (
                        sweep.get("points", 0),
                        "all consistent" if sweep.get("consistent")
                        else "INCONSISTENT",
                    )
                )
        if verbose:
            for trial in report.trials:
                lines.append(
                    "   trial %s %s: %s (%s)"
                    % (
                        trial.kind,
                        trial.detail,
                        "accepted" if trial.accepted else "rejected",
                        trial.reason,
                    )
                )
    return "\n".join(lines)
