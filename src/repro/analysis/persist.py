"""Static persist-ordering prover.

The NVM framework emits, per operation, crash-consistency *obligations*
(:mod:`repro.consistency.obligations`) that the dynamic checker validates
against a full timing simulation.  This module decides the same
obligations **statically**, before a single cycle is simulated:

* ``GUARANTEED`` — the ordering holds on every path, because (a) the
  second instruction transitively consumes the first's key production
  (an EDE edge: a consumer cannot execute before its producer completes),
  or (b) every path between the two crosses a ``DSB SY``/``DMB SY`` or a
  ``WAIT_KEY``/``WAIT_ALL_KEYS`` that provably waits for the first
  instruction's completion.
* ``VIOLATED`` — some path between the two carries **no ordering
  mechanism at all**: no full fence, no covering wait, and the first
  instruction's production (if any) is consumed by nobody.  ``DMB ST``
  intentionally does not count — AArch64's ``DMB ST`` does not order
  ``DC CVAP``, which is exactly why the SU configuration is unsafe by
  specification (Table III).
* ``INDETERMINATE`` — neither: some partial mechanism exists (for
  example a key chain that is later re-produced before the commit wait)
  but the analysis cannot prove the ordering.  The dynamic checker
  remains the authority for these.

Soundness contract (cross-validated by the test suite): a ``GUARANTEED``
verdict must never correspond to a dynamic violation in a safe
configuration (B, IQ, WB).  ``VIOLATED`` under a mode that claims safety
is a code-generation bug and is reported at error severity.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analysis.cfg import build_cfg
from repro.analysis.keystate import EDE_EDGE, KeyStateAnalysis
from repro.consistency.obligations import (
    LOG_BEFORE_STORE,
    PERSIST_BEFORE_COMMIT,
    Obligation,
)
from repro.core.edk import ZERO_KEY
from repro.isa.instructions import Instruction

GUARANTEED = "guaranteed"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"


@dataclasses.dataclass(frozen=True)
class ObligationVerdict:
    """The static fate of one persist-ordering obligation."""

    obligation: Obligation
    verdict: str
    reason: str
    first_index: Optional[int]
    second_index: Optional[int]

    def __str__(self) -> str:
        return "%s: %s (%s)" % (self.verdict.upper(), self.obligation, self.reason)

    def to_dict(self) -> dict:
        return {
            "kind": self.obligation.kind,
            "first_tag": self.obligation.first_tag,
            "second_tag": self.obligation.second_tag,
            "op_id": self.obligation.op_id,
            "txn_id": self.obligation.txn_id,
            "verdict": self.verdict,
            "reason": self.reason,
            "first_index": self.first_index,
            "second_index": self.second_index,
        }


def _tag_number(tag: str) -> int:
    try:
        return int(tag.split(":", 1)[1])
    except (IndexError, ValueError):
        return -1


def derive_obligations(instructions: Sequence[Instruction]) -> List[Obligation]:
    """Derive the standard obligations implied by persist tags.

    This is how assembly fixtures get persist-ordering checks without a
    framework build: every ``log:N``/``store:N`` tag pair implies
    ``LOG_BEFORE_STORE``, and every ``log:``/``data:``/``init:`` tag
    implies ``PERSIST_BEFORE_COMMIT`` against the first ``commit:M`` tag
    appearing after it in the stream (its transaction's commit).
    """
    tags = [
        (site, inst.comment)
        for site, inst in enumerate(instructions)
        if inst.comment is not None
    ]
    commits = [(site, tag) for site, tag in tags if tag.startswith("commit:")]
    store_tags = {tag for _site, tag in tags if tag.startswith("store:")}
    obligations: List[Obligation] = []
    for _site, tag in tags:
        if tag.startswith("log:"):
            store = "store:%s" % tag.split(":", 1)[1]
            if store in store_tags:
                obligations.append(
                    Obligation(
                        kind=LOG_BEFORE_STORE,
                        first_tag=tag,
                        second_tag=store,
                        op_id=_tag_number(tag),
                        txn_id=-1,
                    )
                )
    for site, tag in tags:
        if tag.split(":", 1)[0] in ("log", "data", "init"):
            commit = next((c for c_site, c in commits if c_site > site), None)
            if commit is not None:
                obligations.append(
                    Obligation(
                        kind=PERSIST_BEFORE_COMMIT,
                        first_tag=tag,
                        second_tag=commit,
                        op_id=-1,
                        txn_id=_tag_number(commit),
                    )
                )
    return obligations


def build_tag_index(instructions: Sequence[Instruction]) -> Dict[str, int]:
    """Map each persist tag (instruction ``comment``) to its first site."""
    index: Dict[str, int] = {}
    for site, inst in enumerate(instructions):
        if inst.comment is not None and inst.comment not in index:
            index[inst.comment] = site
    return index


class PersistProver:
    """Decides obligations over one instruction sequence."""

    def __init__(
        self,
        instructions: Sequence[Instruction],
        analysis: Optional[KeyStateAnalysis] = None,
    ):
        self.instructions = instructions
        self.analysis = (
            analysis
            if analysis is not None
            else KeyStateAnalysis(instructions, build_cfg(instructions))
        )
        self.tag_index = build_tag_index(instructions)

    # --- verdicts -----------------------------------------------------------

    def prove(self, obligation: Obligation) -> ObligationVerdict:
        a_site = self.tag_index.get(obligation.first_tag)
        b_site = self.tag_index.get(obligation.second_tag)
        if a_site is None or b_site is None:
            missing = obligation.first_tag if a_site is None else obligation.second_tag
            return ObligationVerdict(
                obligation,
                INDETERMINATE,
                "tag %r not found in the instruction stream" % (missing,),
                a_site,
                b_site,
            )
        if a_site == b_site:
            return ObligationVerdict(
                obligation,
                INDETERMINATE,
                "both tags resolve to the same instruction",
                a_site,
                b_site,
            )

        ordering = self.analysis.ordering(a_site, b_site)
        if ordering == EDE_EDGE:
            return ObligationVerdict(
                obligation,
                GUARANTEED,
                "the second instruction transitively consumes the first's "
                "key production (EDE edge)",
                a_site,
                b_site,
            )
        if ordering is not None:
            return ObligationVerdict(
                obligation,
                GUARANTEED,
                "every path crosses a full fence or a wait covering the "
                "first instruction",
                a_site,
                b_site,
            )

        produces = self.instructions[a_site].edk_def != ZERO_KEY
        if produces and self.analysis.has_consumer(a_site):
            return ObligationVerdict(
                obligation,
                INDETERMINATE,
                "a consumer chains behind the first instruction but no "
                "fence or covering wait secures every path to the second",
                a_site,
                b_site,
            )
        return ObligationVerdict(
            obligation,
            VIOLATED,
            "no full fence, covering wait, or EDE edge orders the pair "
            "on some path",
            a_site,
            b_site,
        )

    def prove_all(self, obligations: Sequence[Obligation]) -> List[ObligationVerdict]:
        return [self.prove(obligation) for obligation in obligations]


def summarize(verdicts: Sequence[ObligationVerdict]) -> Dict[str, int]:
    counts = {GUARANTEED: 0, VIOLATED: 0, INDETERMINATE: 0}
    for verdict in verdicts:
        counts[verdict.verdict] += 1
    return counts
