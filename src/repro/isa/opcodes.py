"""Opcode definitions for the modelled AArch64 subset plus the EDE extension.

The paper adds Execution Dependence Key (EDK) operands to store and cache
writeback instructions and introduces three control instructions (``JOIN``,
``WAIT_KEY`` and ``WAIT_ALL_KEYS``).  This module defines the opcode space of
the simulated machine and the classification predicates the rest of the
system uses (is this a store?  a persist?  a barrier?  an EDE variant?).

Opcode classes
--------------
* Plain AArch64 subset: loads, stores, pairwise stores, ALU ops, moves,
  compares, branches, ``DC CVAP``, ``DSB SY``, ``DMB ST``, ``DMB SY``.
* EDE memory variants (Section IV-B1 of the paper): ``STR_EDE``, ``STP_EDE``,
  ``DC_CVAP_EDE`` and (for the Section VIII future-work evaluation)
  ``LDR_EDE``.
* EDE control instructions (Section IV-B2): ``JOIN``, ``WAIT_KEY``,
  ``WAIT_ALL_KEYS``.
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """All opcodes understood by the simulator."""

    NOP = 0

    # --- ALU / data processing -------------------------------------------
    MOV = 1       # mov xd, #imm  or  mov xd, xn
    ADD = 2       # add xd, xn, xm|#imm
    SUB = 3       # sub xd, xn, xm|#imm
    AND = 4
    ORR = 5
    EOR = 6
    MUL = 7
    LSL = 8
    LSR = 9
    CMP = 10      # cmp xn, xm|#imm (sets flags)

    # --- branches ----------------------------------------------------------
    B = 11        # unconditional branch
    B_EQ = 12
    B_NE = 13
    B_LT = 14
    B_GE = 15
    BL = 16       # branch and link (call)
    RET = 17      # return via x30

    # --- memory ------------------------------------------------------------
    LDR = 20      # ldr xd, [xn, #imm]
    STR = 21      # str xs, [xn, #imm]
    STP = 22      # stp xs1, xs2, [xn, #imm]

    # --- cache maintenance / persistence ------------------------------------
    DC_CVAP = 30  # clean by VA to point of persistence

    # --- barriers ------------------------------------------------------------
    DSB_SY = 40   # full data synchronization barrier
    DMB_ST = 41   # store-store barrier (SFENCE-like in the SU configuration)
    DMB_SY = 42   # full data memory barrier

    # --- EDE memory variants (carry EDK_def / EDK_use operands) -------------
    STR_EDE = 50
    STP_EDE = 51
    DC_CVAP_EDE = 52
    LDR_EDE = 53  # Section VIII future-work load variant

    # --- EDE control instructions --------------------------------------------
    JOIN = 60          # JOIN (EDK_def, EDK_use1, EDK_use2)
    WAIT_KEY = 61      # WAIT_KEY (EDK)
    WAIT_ALL_KEYS = 62

    # --- simulator pseudo-op -------------------------------------------------
    HALT = 63


#: Opcodes that read memory.
LOAD_OPCODES = frozenset({Opcode.LDR, Opcode.LDR_EDE})

#: Opcodes that write memory (become visible when leaving the write buffer).
STORE_OPCODES = frozenset({Opcode.STR, Opcode.STP, Opcode.STR_EDE, Opcode.STP_EDE})

#: Opcodes that clean a line to the point of persistence.
WRITEBACK_OPCODES = frozenset({Opcode.DC_CVAP, Opcode.DC_CVAP_EDE})

#: Opcodes handled by the memory pipeline (address generation + access).
MEMORY_OPCODES = LOAD_OPCODES | STORE_OPCODES | WRITEBACK_OPCODES

#: Fence / barrier opcodes.
BARRIER_OPCODES = frozenset({Opcode.DSB_SY, Opcode.DMB_ST, Opcode.DMB_SY})

#: EDE variants of existing memory instructions.
EDE_MEMORY_OPCODES = frozenset(
    {Opcode.STR_EDE, Opcode.STP_EDE, Opcode.DC_CVAP_EDE, Opcode.LDR_EDE}
)

#: EDE control instructions.
EDE_CONTROL_OPCODES = frozenset({Opcode.JOIN, Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS})

#: Every opcode that carries EDK operands.
EDE_OPCODES = EDE_MEMORY_OPCODES | EDE_CONTROL_OPCODES

#: Control-flow opcodes.
BRANCH_OPCODES = frozenset(
    {Opcode.B, Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE, Opcode.BL, Opcode.RET}
)

#: Conditional branches (read the flags set by CMP).
CONDITIONAL_BRANCH_OPCODES = frozenset(
    {Opcode.B_EQ, Opcode.B_NE, Opcode.B_LT, Opcode.B_GE}
)

#: Mapping from an EDE variant back to its plain opcode.
PLAIN_OPCODE_OF_EDE_VARIANT = {
    Opcode.STR_EDE: Opcode.STR,
    Opcode.STP_EDE: Opcode.STP,
    Opcode.DC_CVAP_EDE: Opcode.DC_CVAP,
    Opcode.LDR_EDE: Opcode.LDR,
}

#: Mapping from a plain opcode to its EDE variant.
EDE_VARIANT_OF_PLAIN_OPCODE = {
    plain: ede for ede, plain in PLAIN_OPCODE_OF_EDE_VARIANT.items()
}


def is_load(opcode: Opcode) -> bool:
    return opcode in LOAD_OPCODES


def is_store(opcode: Opcode) -> bool:
    return opcode in STORE_OPCODES


def is_writeback(opcode: Opcode) -> bool:
    return opcode in WRITEBACK_OPCODES


def is_memory(opcode: Opcode) -> bool:
    return opcode in MEMORY_OPCODES


def is_barrier(opcode: Opcode) -> bool:
    return opcode in BARRIER_OPCODES


def is_branch(opcode: Opcode) -> bool:
    return opcode in BRANCH_OPCODES


def is_ede(opcode: Opcode) -> bool:
    """Return whether the opcode carries EDK operands."""
    return opcode in EDE_OPCODES


def is_ede_control(opcode: Opcode) -> bool:
    return opcode in EDE_CONTROL_OPCODES


def is_store_class(opcode: Opcode) -> bool:
    """Stores, pairwise stores and cacheline writebacks.

    The paper's SU configuration uses ``DMB ST`` to order the *store class*
    (as SFENCE orders stores and CLWBs on x86-64).
    """
    return opcode in STORE_OPCODES or opcode in WRITEBACK_OPCODES
