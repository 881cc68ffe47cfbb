"""Control-flow graph construction over the modelled ISA.

Works on both static programs (label-carrying branch targets, as produced
by :mod:`repro.isa.assembler`) and flattened dynamic traces.  Basic-block
leaders are the entry point, every branch target, and every instruction
following a branch, ``BL``, ``RET`` or ``HALT``.  Successor rules:

* ``B label`` — the target block only.
* ``B.cond label`` — the target block and the fall-through block.
* ``BL label`` — the target block *and* the fall-through block.  The
  analysis is intraprocedural; modelling a call as a superposition of
  "entered the callee" and "returned past the call" is conservative for
  every dataflow in this package.
* ``RET`` / ``HALT`` — the synthetic exit.
* A branch with no symbolic target (``target is None``) — fall-through
  only.  This is the dynamic-trace case: the trace builder has already
  resolved the branch, so the recorded path *is* the fall-through (see
  the hazard workload's perfectly-predicted ``B.NE``).

:meth:`CFG.solve` is the one forward dataflow solver (a reverse-postorder
worklist, then a recording pass); the key-state analysis, the fence
linter's windows and the dominators all run on it.  Back edges (edges
whose head dominates their tail) identify natural loops, which the
key-state checks use to annotate loop-carried findings.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode

#: Successor marker for leaving the program (RET/HALT/falling off the end).
EXIT = -1

State = TypeVar("State")


class CfgError(ValueError):
    """Raised when a CFG cannot be built (e.g. an undefined branch label)."""

    def __init__(self, index: int, message: str):
        super().__init__("at %d: %s" % (index, message))
        self.index = index


@dataclasses.dataclass
class BasicBlock:
    """A maximal straight-line run of instructions ``[start, end)``."""

    index: int
    start: int
    end: int
    successors: List[int] = dataclasses.field(default_factory=list)
    predecessors: List[int] = dataclasses.field(default_factory=list)

    def __len__(self) -> int:
        return self.end - self.start

    def sites(self) -> range:
        return range(self.start, self.end)


class CFG:
    """Basic blocks plus derived structure (dominators, loops)."""

    def __init__(
        self,
        instructions: Sequence[Instruction],
        blocks: List[BasicBlock],
        block_index_of: List[int],
        labels: Dict[str, int],
    ):
        self.instructions = instructions
        self.blocks = blocks
        self._block_index_of = block_index_of
        self.labels = dict(labels)
        self._dominators: Optional[List[Set[int]]] = None

    # --- structure queries -------------------------------------------------

    def block_of(self, site: int) -> BasicBlock:
        """The block containing instruction index ``site``."""
        return self.blocks[self._block_index_of[site]]

    def successor_sites(self, site: int) -> List[int]:
        """Instruction indices that may execute immediately after ``site``."""
        block = self.block_of(site)
        if site + 1 < block.end:
            return [site + 1]
        return [
            self.blocks[succ].start for succ in block.successors if succ != EXIT
        ]

    def entry_block(self) -> Optional[BasicBlock]:
        return self.blocks[0] if self.blocks else None

    # --- dominators and loops ----------------------------------------------

    def dominators(self) -> List[Set[int]]:
        """Per-block dominator sets (entry = block 0; unreachable: all blocks)."""
        if self._dominators is not None:
            return self._dominators
        doms = [set(range(len(self.blocks))) for _ in self.blocks]

        def transfer(index: int, state: FrozenSet[int], record: bool) -> FrozenSet[int]:
            out = state | {index}
            if record:
                doms[index] = set(out)
            return out

        self.solve(frozenset(), transfer, frozenset.intersection)
        self._dominators = doms
        return doms

    def solve(
        self,
        entry: State,
        transfer: Callable[[int, State, bool], State],
        join: Callable[[State, State], State],
    ) -> Dict[int, State]:
        """Run a forward dataflow to its fixpoint, then one recording pass.

        ``transfer(block, state, record)`` maps a block's entry state to
        its exit state.  The worklist takes blocks in reverse postorder
        with ``record=False``, joining each exit state into the successors'
        entry states (``join(existing, incoming)``) until none changes;
        then every reachable block is transferred once more, in index
        order, with ``record=True``.  Returns the entry state of every
        reachable block.
        """
        if not self.blocks:
            return {}
        in_states: Dict[int, State] = {0: entry}
        order = {b: i for i, b in enumerate(self.reverse_postorder())}
        work: Set[int] = {0}
        while work:
            block_index = min(work, key=order.__getitem__)
            work.discard(block_index)
            succs = [s for s in self.blocks[block_index].successors if s != EXIT]
            if not succs:
                continue  # an exit block's out state feeds no join
            out = transfer(block_index, in_states[block_index], False)
            for succ in succs:
                existing = in_states.get(succ)
                joined = out if existing is None else join(existing, out)
                if existing is None or joined != existing:
                    in_states[succ] = joined
                    work.add(succ)
        for block_index in sorted(in_states):
            transfer(block_index, in_states[block_index], True)
        return in_states

    def reverse_postorder(self) -> List[int]:
        """Block indices in reverse postorder from the entry."""
        seen: Set[int] = set()
        postorder: List[int] = []

        def visit(start: int) -> None:
            stack: List[Tuple[int, Iterable[int]]] = [(start, iter(self.blocks[start].successors))]
            seen.add(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ != EXIT and succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].successors)))
                        advanced = True
                        break
                if not advanced:
                    postorder.append(node)
                    stack.pop()

        if self.blocks:
            visit(0)
        # Unreachable blocks go last, in index order.
        for block in self.blocks:
            if block.index not in seen:
                postorder.insert(0, block.index)
        return list(reversed(postorder))

    def reachable_blocks(self) -> FrozenSet[int]:
        """Blocks reachable from the entry."""
        if not self.blocks:
            return frozenset()
        seen = {0}
        work = [0]
        while work:
            node = work.pop()
            for succ in self.blocks[node].successors:
                if succ != EXIT and succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return frozenset(seen)

    def back_edges(self) -> List[Tuple[int, int]]:
        """Edges ``(tail, head)`` where the head dominates the tail."""
        doms = self.dominators()
        reachable = self.reachable_blocks()
        edges = []
        for block in self.blocks:
            if block.index not in reachable:
                continue
            for succ in block.successors:
                if succ != EXIT and succ in doms[block.index]:
                    edges.append((block.index, succ))
        return edges

    def loop_blocks(self) -> FrozenSet[int]:
        """Blocks that belong to some natural loop."""
        in_loop: Set[int] = set()
        for tail, head in self.back_edges():
            body = {head, tail}
            work = [tail]
            while work:
                node = work.pop()
                if node == head:
                    continue
                for pred in self.blocks[node].predecessors:
                    if pred not in body:
                        body.add(pred)
                        work.append(pred)
            in_loop |= body
        return frozenset(in_loop)


def _resolve_target(
    inst: Instruction, site: int, labels: Dict[str, int], length: int
) -> Optional[int]:
    """The instruction index a branch goes to, or None for trace branches."""
    if inst.target is None:
        return None
    try:
        target = labels[inst.target]
    except KeyError:
        raise CfgError(site, "undefined branch label %r" % (inst.target,)) from None
    if not 0 <= target <= length:
        raise CfgError(site, "branch label %r resolves outside the program" % (inst.target,))
    return target


def build_cfg(
    instructions: Sequence[Instruction],
    labels: Optional[Dict[str, int]] = None,
) -> CFG:
    """Build the CFG of an instruction sequence.

    ``labels`` maps symbolic branch targets to instruction indices (pass
    ``program.labels`` for assembled code; traces need none).  Raises
    :class:`CfgError` on an undefined or out-of-range label.
    """
    labels = dict(labels or {})
    length = len(instructions)
    if length == 0:
        return CFG(instructions, [], [], labels)

    leaders: Set[int] = {0}
    targets: Dict[int, Optional[int]] = {}
    for site, inst in enumerate(instructions):
        opcode = inst.opcode
        if inst.is_branch:
            target = None
            if opcode is not Opcode.RET:
                target = _resolve_target(inst, site, labels, length)
            targets[site] = target
            if target is not None and target < length:
                leaders.add(target)
            if site + 1 < length:
                leaders.add(site + 1)
        elif opcode is Opcode.HALT and site + 1 < length:
            leaders.add(site + 1)

    starts = sorted(leaders)
    blocks: List[BasicBlock] = []
    block_index_of = [0] * length
    for block_index, start in enumerate(starts):
        end = starts[block_index + 1] if block_index + 1 < len(starts) else length
        blocks.append(BasicBlock(index=block_index, start=start, end=end))
        for site in range(start, end):
            block_index_of[site] = block_index

    def block_at(site: int) -> int:
        """Block index starting at instruction ``site`` (EXIT past the end)."""
        if site >= length:
            return EXIT
        return block_index_of[site]

    for block in blocks:
        last_site = block.end - 1
        last = instructions[last_site]
        opcode = last.opcode
        succs: List[int] = []
        if opcode is Opcode.HALT or opcode is Opcode.RET:
            succs = [EXIT]
        elif last.is_branch:
            target = targets.get(last_site)
            if target is None:
                # Resolved trace branch: the recorded path is fall-through.
                succs = [block_at(block.end)]
            elif opcode is Opcode.B:
                succs = [block_at(target)]
            else:
                # Conditional branches and BL: taken + fall-through.
                succs = [block_at(target), block_at(block.end)]
        else:
            succs = [block_at(block.end)]
        # Deduplicate while preserving order (e.g. a branch to fall-through).
        seen: Set[int] = set()
        block.successors = [s for s in succs if not (s in seen or seen.add(s))]

    for block in blocks:
        for succ in block.successors:
            if succ != EXIT:
                blocks[succ].predecessors.append(block.index)

    return CFG(instructions, blocks, block_index_of, labels)
