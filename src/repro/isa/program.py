"""Program container and trace builder.

A :class:`Program` is a static instruction sequence with labels; the
functional machine executes it.  A :class:`TraceBuilder` accumulates a
*dynamic* instruction stream with pre-resolved addresses — the form the
trace-driven timing model consumes.  The NVM framework's code generator
writes into a TraceBuilder while the workload executes functionally.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.isa.instructions import Instruction, halt
from repro.isa.opcodes import MEMORY_OPCODES


class Program:
    """A static program: instructions plus label -> index mapping."""

    def __init__(self) -> None:
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}

    def add(self, inst: Instruction) -> int:
        """Append an instruction; return its index."""
        self._instructions.append(inst)
        return len(self._instructions) - 1

    def label(self, name: str) -> None:
        """Attach ``name`` to the next instruction to be added."""
        if name in self._labels:
            raise ValueError("duplicate label: %r" % (name,))
        self._labels[name] = len(self._instructions)

    def resolve(self, name: str) -> int:
        """Return the instruction index a label points to."""
        try:
            return self._labels[name]
        except KeyError:
            raise KeyError("undefined label: %r" % (name,)) from None

    @property
    def labels(self) -> Dict[str, int]:
        return dict(self._labels)

    @property
    def instructions(self) -> List[Instruction]:
        return list(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def listing(self) -> str:
        """Human-readable assembly listing with labels."""
        by_index: Dict[int, List[str]] = {}
        for name, index in self._labels.items():
            by_index.setdefault(index, []).append(name)
        lines = []
        for index, inst in enumerate(self._instructions):
            for name in by_index.get(index, ()):
                lines.append("%s:" % name)
            lines.append("    %s" % inst)
        for name in by_index.get(len(self._instructions), ()):
            lines.append("%s:" % name)
        return "\n".join(lines)


class TraceBuilder:
    """Accumulates a dynamic instruction trace for the timing model.

    Unlike a :class:`Program`, a trace is already flattened: branches have
    been resolved by the functional execution that produced it, and memory
    instructions carry concrete effective addresses.
    """

    def __init__(self) -> None:
        self._trace: List[Instruction] = []

    def emit(self, inst: Instruction) -> int:
        """Append a dynamic instruction; return its sequence number."""
        if inst.addr is None and inst.opcode in MEMORY_OPCODES:
            raise ValueError(
                "memory instruction in a trace must carry an address: %s" % inst
            )
        self._trace.append(inst)
        return len(self._trace) - 1

    def emit_all(self, instructions: List[Instruction]) -> None:
        for inst in instructions:
            self.emit(inst)

    def finish(self) -> List[Instruction]:
        """Terminate the trace with HALT and return it."""
        if not self._trace or self._trace[-1].opcode.name != "HALT":
            self._trace.append(halt())
        return self._trace

    @property
    def trace(self) -> List[Instruction]:
        return list(self._trace)

    def __len__(self) -> int:
        return len(self._trace)

    def marker(self) -> int:
        """Current position; useful for delimiting regions of interest."""
        return len(self._trace)

