"""Fence-redundancy linter: find fences EDE already makes unnecessary.

The paper's entire premise is that execution dependences express the
orderings programs actually need, making full fences — which order
*everything* — removable.  This linter identifies ``DSB SY``/``DMB SY``
instructions whose whole ordering effect is already enforced without
them, and reports the estimated saving.

For a full fence ``F`` the linter considers every ordered pair
``(p, s)`` where ``p`` is a store-class instruction (store, pairwise
store or ``DC CVAP``) that may reach ``F`` without crossing another full
fence, and ``s`` is a store-class instruction reachable from ``F``
before the next full fence.  ``F`` is *redundant* when every such pair
is already ordered without it: ``s`` transitively consumes ``p``'s key
production, or every ``F``-free path from ``p`` to ``s`` crosses another
full fence or a wait that provably waits for ``p``.  Fences with an
empty window on either side order no store-class pair inside the
analyzed sequence and are left alone (their effect, if any, is against
code outside the sequence).

Windows are *may* sets (union over paths), so removing a fence is only
suggested when every pair on every path is covered — conservative in
the safe direction.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import build_cfg
from repro.analysis.findings import INFO, Finding
from repro.analysis.keystate import FULL_FENCES, KeyStateAnalysis
from repro.isa.instructions import Instruction

WindowState = FrozenSet[int]


@dataclasses.dataclass
class FenceReport:
    """Aggregate linter output for one instruction sequence."""

    total_full_fences: int
    redundant_sites: List[int]
    instructions: int

    @property
    def redundant_count(self) -> int:
        return len(self.redundant_sites)

    @property
    def eliminable_fraction(self) -> float:
        if not self.total_full_fences:
            return 0.0
        return self.redundant_count / self.total_full_fences

    def to_dict(self) -> dict:
        return {
            "total_full_fences": self.total_full_fences,
            "redundant_fences": self.redundant_count,
            "redundant_sites": list(self.redundant_sites),
            "eliminable_fraction": self.eliminable_fraction,
            "instructions": self.instructions,
        }


class _FenceLinter:
    def __init__(self, analysis: KeyStateAnalysis):
        self.instructions = analysis.instructions
        self.cfg = analysis.cfg
        self.analysis = analysis

    # --- windows ------------------------------------------------------------

    def _before_windows(self) -> Dict[int, FrozenSet[int]]:
        """Per-fence may-set of store-class sites since the last full fence."""
        cfg = self.cfg
        windows: Dict[int, Set[int]] = {}

        def transfer(block_index: int, state: WindowState, record: bool) -> WindowState:
            pending = set(state)
            for site in cfg.blocks[block_index].sites():
                inst = self.instructions[site]
                if inst.opcode in FULL_FENCES:
                    if record:
                        windows.setdefault(site, set()).update(pending)
                    pending.clear()
                elif inst.is_store_class:
                    pending.add(site)
            return frozenset(pending)

        cfg.solve(frozenset(), transfer, frozenset.union)
        return {site: frozenset(sites) for site, sites in windows.items()}

    def _after_window(self, fence_site: int) -> FrozenSet[int]:
        """Store-class sites reachable from the fence before the next one."""
        window: Set[int] = set()
        frontier = list(self.cfg.successor_sites(fence_site))
        visited = set(frontier)
        while frontier:
            site = frontier.pop()
            inst = self.instructions[site]
            if inst.opcode in FULL_FENCES:
                continue
            if inst.is_store_class:
                window.add(site)
            for succ in self.cfg.successor_sites(site):
                if succ not in visited:
                    visited.add(succ)
                    frontier.append(succ)
        return frozenset(window)

    # --- driver -------------------------------------------------------------

    def run(self) -> Tuple[List[Finding], FenceReport]:
        findings: List[Finding] = []
        fence_sites = sorted(self.analysis.full_fence_sites)
        before = self._before_windows()
        ordering = self.analysis.ordering
        redundant: List[int] = []
        for fence_site in fence_sites:
            before_window = before.get(fence_site, frozenset())
            if not before_window:
                continue
            after_window = self._after_window(fence_site)
            if not after_window:
                continue
            if all(
                ordering(p, s, ignore=fence_site)
                for p in before_window
                for s in after_window
            ):
                redundant.append(fence_site)
                findings.append(
                    Finding(
                        INFO,
                        fence_site,
                        "full fence at %d is redundant: all %d x %d store-class "
                        "orderings across it are already enforced by EDE "
                        "dependences or waits (candidate for elimination)"
                        % (fence_site, len(before_window), len(after_window)),
                        "redundant-fence",
                    )
                )
        report = FenceReport(
            total_full_fences=len(fence_sites),
            redundant_sites=redundant,
            instructions=len(self.instructions),
        )
        return findings, report


def lint_fences(
    instructions: Sequence[Instruction],
    analysis: Optional[KeyStateAnalysis] = None,
) -> Tuple[List[Finding], FenceReport]:
    """Run the fence-redundancy linter; returns (findings, report).

    ``analysis`` is the key-state pass over ``instructions``; it is run
    here when not supplied.
    """
    if analysis is None:
        analysis = KeyStateAnalysis(instructions, build_cfg(instructions))
    return _FenceLinter(analysis).run()
