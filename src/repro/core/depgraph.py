"""Dependence graphs over instruction sequences (Figure 5 of the paper).

The graph records three edge kinds:

* **register** — from an instruction defining a register to the next
  instructions using it (true dependences; the graph follows last-writer
  semantics like a renamed machine).
* **memory** — chaining accesses to the same address in program order
  (loads may reorder with loads; everything else chains).
* **execution** — the EDE edges: from a dependence producer to each
  consumer that picked it up through the EDM.

It is used by tests that reproduce Figure 5 and cross-check the timing
model's enforcement against the architectural dependences.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.edm import ExecutionDependenceMap
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import XZR

REGISTER = "register"
MEMORY = "memory"
EXECUTION = "execution"
BARRIER = "barrier"

_FLAGS_REG = -1  # pseudo-register for the NZCV flags


@dataclasses.dataclass(frozen=True)
class Edge:
    """A dependence edge from instruction index ``src`` to ``dst``."""

    src: int
    dst: int
    kind: str
    detail: str = ""


def _defined_regs(inst: Instruction) -> Tuple[int, ...]:
    regs = tuple(r for r in inst.dst if r != XZR)
    if inst.opcode is Opcode.CMP:
        regs += (_FLAGS_REG,)
    if inst.opcode is Opcode.BL:
        regs += (30,)
    return regs


def _used_regs(inst: Instruction) -> Tuple[int, ...]:
    regs = tuple(r for r in inst.src if r != XZR)
    if inst.opcode in (Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE):
        regs += (_FLAGS_REG,)
    return regs


def _touched_lines(inst: Instruction, line_size: int) -> Tuple[int, ...]:
    if inst.addr is None or not inst.is_memory:
        return ()
    first = inst.addr & ~(line_size - 1)
    last = (inst.addr + inst.size - 1) & ~(line_size - 1)
    return tuple(range(first, last + 1, line_size))


class DependenceGraph:
    """Register + memory + execution dependences for a sequence."""

    def __init__(self, instructions: List[Instruction], line_size: int = 64):
        self.instructions = list(instructions)
        self.line_size = line_size
        self.edges: List[Edge] = []
        self._out: Dict[int, List[Edge]] = {}
        self._in: Dict[int, List[Edge]] = {}
        self._build()

    def _add(self, src: int, dst: int, kind: str, detail: str = "") -> None:
        edge = Edge(src, dst, kind, detail)
        self.edges.append(edge)
        self._out.setdefault(src, []).append(edge)
        self._in.setdefault(dst, []).append(edge)

    def _build(self) -> None:
        last_writer: Dict[int, int] = {}
        last_touch: Dict[int, int] = {}       # line -> last non-load index
        last_any_touch: Dict[int, int] = {}   # line -> last access index
        edm = ExecutionDependenceMap()

        for index, inst in enumerate(self.instructions):
            for reg in _used_regs(inst):
                writer = last_writer.get(reg)
                if writer is not None:
                    self._add(writer, index, REGISTER, "x%d" % reg
                              if reg >= 0 else "flags")
            for reg in _defined_regs(inst):
                last_writer[reg] = index

            for line in _touched_lines(inst, self.line_size):
                if inst.is_load:
                    producer = last_touch.get(line)
                    if producer is not None:
                        self._add(producer, index, MEMORY, hex(line))
                else:
                    producer = last_any_touch.get(line)
                    if producer is not None:
                        self._add(producer, index, MEMORY, hex(line))
                    last_touch[line] = index
                last_any_touch[line] = index

            if inst.is_ede:
                for key in inst.consumer_keys():
                    producer = edm.lookup(key)
                    if producer is not None:
                        self._add(producer, index, EXECUTION, "EDK#%d" % key)
                edm.define(inst.edk_def, index)
                if inst.opcode is Opcode.WAIT_KEY:
                    # WAIT_KEY waits on all prior producers of its key; the
                    # EDM edge above already links the most recent one.
                    pass

            if inst.is_barrier:
                # A barrier orders everything before it with everything
                # after; represent it with edges to/from the barrier itself.
                if index > 0:
                    self._add(index - 1, index, BARRIER, inst.opcode.name)

    # --- queries ------------------------------------------------------------

    def successors(self, index: int,
                   kinds: Optional[Iterable[str]] = None) -> List[Edge]:
        edges = self._out.get(index, [])
        if kinds is None:
            return list(edges)
        wanted = frozenset(kinds)
        return [e for e in edges if e.kind in wanted]

    def predecessors(self, index: int,
                     kinds: Optional[Iterable[str]] = None) -> List[Edge]:
        edges = self._in.get(index, [])
        if kinds is None:
            return list(edges)
        wanted = frozenset(kinds)
        return [e for e in edges if e.kind in wanted]

    def execution_edges(self) -> List[Edge]:
        return [e for e in self.edges if e.kind == EXECUTION]

    def has_path(self, src: int, dst: int,
                 kinds: Optional[Iterable[str]] = None) -> bool:
        """Is ``dst`` ordered after ``src`` through dependences?"""
        wanted = None if kinds is None else frozenset(kinds)
        seen = set()
        frontier = [src]
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            for edge in self._out.get(node, ()):
                if wanted is None or edge.kind in wanted:
                    if edge.dst <= dst:
                        frontier.append(edge.dst)
        return False

    def to_dot(self) -> str:
        """Graphviz rendering (register=gray, memory=dashed, execution=red)."""
        styles = {
            REGISTER: 'color="gray"',
            MEMORY: 'style="dashed"',
            EXECUTION: 'color="red"',
            BARRIER: 'color="blue" style="bold"',
        }
        lines = ["digraph deps {"]
        for index, inst in enumerate(self.instructions):
            lines.append('  n%d [label="%d: %s"];' % (index, index, inst))
        for edge in self.edges:
            lines.append('  n%d -> n%d [%s];' % (edge.src, edge.dst,
                                                 styles[edge.kind]))
        lines.append("}")
        return "\n".join(lines)
