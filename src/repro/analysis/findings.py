"""The finding model shared by every static check.

A :class:`Finding` is one diagnostic anchored to an instruction index:
its severity, the index, a message, and ``check``, the name of the
analysis that produced it, which the CLI surfaces as a rule id in JSON
and SARIF output.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Ordering used by ``--fail-on`` thresholds: higher is more severe.
SEVERITY_RANK: Dict[str, int] = {INFO: 0, WARNING: 1, ERROR: 2}

#: Check identifiers (rule ids) with one-line descriptions — the check
#: catalog rendered by ``python -m repro.analysis --list-checks``.
CHECK_CATALOG: Dict[str, str] = {
    "cfg": "control-flow graph construction errors (undefined branch labels)",
    "dangling-consumer": "a consumer key has no live producer on some path",
    "producer-overwrite": "a producer is redefined before any consumer used it",
    "join-no-use": "a JOIN with both use keys zero has no effect",
    "fence-shadow": "an EDE edge already enforced by an intervening full fence",
    "dead-key": "a produced key is never consumed on any path",
    "edm-pressure": "a path fills all 15 EDM entries with live dependences",
    "unreachable-code": "a basic block no path from entry reaches",
    "persist-ordering": "a persist-ordering obligation is not statically met",
    "redundant-fence": "a full fence whose ordering EDE edges already enforce",
    "calling-convention": "EDK caller-/callee-saved convention violations",
    "autotune-removed": "an ordering instruction the autotuner proved "
    "redundant and removed",
    "autotune-skipped": "a target the autotuner could not search",
    "autotune-reverted": "an optimization undone after failing the "
    "dynamic oracle",
}


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic from a static check."""

    severity: str
    index: int
    message: str
    check: str = "generic"

    def __str__(self) -> str:
        return "[%s] at %d: %s" % (self.severity, self.index, self.message)

    def to_dict(self) -> dict:
        return {
            "severity": self.severity,
            "index": self.index,
            "message": self.message,
            "check": self.check,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            severity=data["severity"],
            index=data["index"],
            message=data["message"],
            check=data.get("check", "generic"),
        )


def count_by_severity(findings: Sequence[Finding]) -> Dict[str, int]:
    counts = {ERROR: 0, WARNING: 0, INFO: 0}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    return counts


def at_or_above(findings: Sequence[Finding], severity: str) -> List[Finding]:
    """Findings whose severity is at least ``severity``."""
    floor = SEVERITY_RANK[severity]
    return [f for f in findings if SEVERITY_RANK[f.severity] >= floor]
