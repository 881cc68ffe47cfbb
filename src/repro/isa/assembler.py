"""A small assembler for the modelled ISA, with the paper's EDE syntax.

The paper writes EDE instructions with a parenthesised key pair before the
original operands, e.g.::

    dc cvap (1, 0), x2
    str (0, 1), x3, [x0]
    join (3, 1, 2)
    wait_key (1)
    wait_all_keys

The assembler also accepts the plain AArch64 subset used in the paper's
examples (Figures 4 and 12): ``ldr``, ``str``, ``stp``, ``mov``, ``add``,
``sub``, ``cmp``, ``b``, ``b.<cond>``, ``bl``, ``ret``, ``dc cvap``,
``dsb sy``, ``dmb st``, ``dmb sy``, ``nop`` and ``halt``.  Comments start
with ``;`` or ``//``.  A trailing ``label:`` introduces a label.
"""

from __future__ import annotations

import dataclasses
import re
from typing import List, Optional, Tuple

from repro.isa import instructions as ops
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import parse_reg


class AssemblerError(ValueError):
    """Raised on a malformed assembly line."""

    def __init__(self, message: str, line_number: int, line: str):
        super().__init__("line %d: %s: %r" % (line_number, message, line))
        self.line_number = line_number
        self.line = line


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):$")
_EDK_RE = re.compile(r"^\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?(?:,\s*(\d+)\s*)?\)$")
_MEM_RE = re.compile(r"^\[\s*([a-zA-Z]\w*)\s*(?:,\s*#(-?\d+)\s*)?\]$")


def _split_comment(line: str) -> Tuple[str, Optional[str]]:
    """Split a source line into code and its trailing comment text."""
    cut = None
    for marker in (";", "//"):
        index = line.find(marker)
        if index >= 0 and (cut is None or index < cut[0]):
            cut = (index, len(marker))
    if cut is None:
        return line.strip(), None
    index, width = cut
    return line[:index].strip(), line[index + width:].strip()


def _split_operands(text: str) -> List[str]:
    """Split an operand string on commas that are not inside () or []."""
    parts: List[str] = []
    depth = 0
    current = []
    for char in text:
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_edk(token: str) -> Optional[Tuple[int, int, int]]:
    match = _EDK_RE.match(token)
    if not match:
        return None
    values = [int(group) if group is not None else 0 for group in match.groups()]
    return values[0], values[1], values[2]


def _parse_mem(token: str) -> Tuple[int, int]:
    match = _MEM_RE.match(token)
    if not match:
        raise ValueError("expected memory operand, got %r" % (token,))
    offset = int(match.group(2)) if match.group(2) else 0
    return parse_reg(match.group(1)), offset


def _parse_imm(token: str) -> int:
    if not token.startswith("#"):
        raise ValueError("expected immediate, got %r" % (token,))
    return int(token[1:], 0)


def assemble_line(line: str) -> Optional[ops.Instruction]:
    """Assemble a single (comment-stripped, label-free) line.

    Returns None for an empty line.
    """
    text = line.strip()
    if not text:
        return None
    lowered = text.lower()

    # Multi-word fixed mnemonics first.
    if lowered == "dsb sy":
        return ops.dsb_sy()
    if lowered == "dmb st":
        return ops.dmb_st()
    if lowered == "dmb sy":
        return ops.dmb_sy()
    if lowered == "wait_all_keys":
        return ops.wait_all_keys()
    if lowered == "nop":
        return ops.nop()
    if lowered == "halt":
        return ops.halt()
    if lowered == "ret":
        return ops.Instruction(Opcode.RET, src=(30,))

    if lowered.startswith("dc cvap"):
        rest = text[len("dc cvap"):].strip()
        if rest.startswith(","):
            rest = rest[1:].strip()
        parts = _split_operands(rest)
        keys = _parse_edk(parts[0]) if parts else None
        if keys is not None:
            if len(parts) != 2:
                raise ValueError("dc cvap with EDKs takes one register")
            return ops.dc_cvap_ede(parse_reg(parts[1]), keys[0], keys[1])
        if len(parts) != 1:
            raise ValueError("dc cvap takes one register")
        return ops.dc_cvap(parse_reg(parts[0]))

    mnemonic, _, operand_text = text.partition(" ")
    mnemonic = mnemonic.lower()
    operands = _split_operands(operand_text)

    if mnemonic == "wait_key":
        keys = _parse_edk(operands[0]) if operands else None
        if keys is None:
            raise ValueError("wait_key requires a key, e.g. wait_key (1)")
        return ops.wait_key(keys[0])

    if mnemonic == "join":
        keys = _parse_edk(operands[0]) if operands else None
        if keys is None:
            raise ValueError("join requires keys, e.g. join (3, 1, 2)")
        return ops.join(keys[0], keys[1], keys[2])

    if mnemonic in ("b", "bl"):
        if len(operands) != 1:
            raise ValueError("%s takes one target" % mnemonic)
        opcode = Opcode.B if mnemonic == "b" else Opcode.BL
        return ops.Instruction(opcode, target=operands[0])

    if mnemonic.startswith("b."):
        cond = mnemonic[2:]
        cond_map = {"eq": Opcode.B_EQ, "ne": Opcode.B_NE,
                    "lt": Opcode.B_LT, "ge": Opcode.B_GE}
        if cond not in cond_map:
            raise ValueError("unsupported branch condition %r" % cond)
        return ops.Instruction(cond_map[cond], target=operands[0])

    if mnemonic == "mov":
        if len(operands) != 2:
            raise ValueError("mov takes two operands")
        rd = parse_reg(operands[0])
        if operands[1].startswith("#"):
            return ops.mov_imm(rd, _parse_imm(operands[1]))
        return ops.mov_reg(rd, parse_reg(operands[1]))

    if mnemonic in ("add", "sub", "and", "orr", "eor", "mul", "lsl", "lsr"):
        opcode = Opcode[mnemonic.upper()]
        if len(operands) != 3:
            raise ValueError("%s takes three operands" % mnemonic)
        rd = parse_reg(operands[0])
        rn = parse_reg(operands[1])
        if operands[2].startswith("#"):
            return ops.Instruction(opcode, dst=(rd,), src=(rn,),
                                   imm=_parse_imm(operands[2]))
        return ops.Instruction(opcode, dst=(rd,), src=(rn, parse_reg(operands[2])))

    if mnemonic == "cmp":
        if len(operands) != 2:
            raise ValueError("cmp takes two operands")
        rn = parse_reg(operands[0])
        if operands[1].startswith("#"):
            return ops.cmp(rn, imm=_parse_imm(operands[1]))
        return ops.cmp(rn, parse_reg(operands[1]))

    if mnemonic == "ldr":
        keys = _parse_edk(operands[0]) if operands else None
        if keys is not None:
            operands = operands[1:]
        if len(operands) != 2:
            raise ValueError("ldr takes a register and a memory operand")
        rd = parse_reg(operands[0])
        rn, offset = _parse_mem(operands[1])
        if keys is not None:
            return ops.ldr_ede(rd, rn, keys[0], keys[1], offset)
        return ops.ldr(rd, rn, offset)

    if mnemonic == "str":
        keys = _parse_edk(operands[0]) if operands else None
        if keys is not None:
            operands = operands[1:]
        if len(operands) != 2:
            raise ValueError("str takes a register and a memory operand")
        rs = parse_reg(operands[0])
        rn, offset = _parse_mem(operands[1])
        if keys is not None:
            return ops.store_ede(rs, rn, keys[0], keys[1], offset)
        return ops.store(rs, rn, offset)

    if mnemonic == "stp":
        keys = _parse_edk(operands[0]) if operands else None
        if keys is not None:
            operands = operands[1:]
        if len(operands) != 3:
            raise ValueError("stp takes two registers and a memory operand")
        rs1 = parse_reg(operands[0])
        rs2 = parse_reg(operands[1])
        rn, offset = _parse_mem(operands[2])
        if keys is not None:
            return ops.stp_ede(rs1, rs2, rn, keys[0], keys[1], offset)
        return ops.stp(rs1, rs2, rn, offset)

    raise ValueError("unknown mnemonic %r" % mnemonic)


def assemble(source: str) -> Program:
    """Assemble a multi-line source string into a :class:`Program`.

    A comment beginning with ``@`` attaches its text to the instruction on
    that line as a persist tag (``Instruction.comment``), so assembly
    fixtures can carry the ``log:<op>``/``store:<op>``-style tags the
    persist-ordering prover and the consistency checker key on::

        str x1, [x0]      ;@ store:0
    """
    program = Program()
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line, comment = _split_comment(raw_line)
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            program.label(label_match.group(1))
            continue
        # Allow "label: inst" on one line.
        if ":" in line and not line.lower().startswith(("ldr", "str", "stp")):
            head, _, rest = line.partition(":")
            if _LABEL_RE.match(head + ":"):
                program.label(head)
                line = rest.strip()
                if not line:
                    continue
        try:
            inst = assemble_line(line)
        except ValueError as exc:
            raise AssemblerError(str(exc), line_number, raw_line) from exc
        if inst is not None:
            if comment and comment.startswith("@") and inst.comment is None:
                inst = dataclasses.replace(inst, comment=comment[1:].strip())
            program.add(inst)
    return program
