"""Dynamic (in-flight) instruction state for the timing model."""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.edk import NUM_KEYS, ZERO_KEY
from repro.isa.instructions import CLASSIFICATION_BY_OPCODE, Instruction
from repro.isa.opcodes import Opcode

#: Retirement classes — precomputed so the retire stage switches on an int
#: instead of chaining opcode identity checks for every head-of-ROB probe.
RETIRE_NORMAL = 0
RETIRE_DSB = 1
RETIRE_WAIT_KEY = 2
RETIRE_WAIT_ALL = 3
RETIRE_HALT = 4

_RETIRE_CLASS = {
    Opcode.DSB_SY: RETIRE_DSB,
    Opcode.WAIT_KEY: RETIRE_WAIT_KEY,
    Opcode.WAIT_ALL_KEYS: RETIRE_WAIT_ALL,
    Opcode.HALT: RETIRE_HALT,
}

#: Execution kinds — which functional unit / latency applies at issue.
EXEC_LOAD = 0
EXEC_AGU = 1
EXEC_MUL = 2
EXEC_BRANCH = 3
EXEC_ALU = 4

_ALL_PRODUCER_KEYS = tuple(range(1, NUM_KEYS))


def retire_class_of(opcode: Opcode) -> int:
    return _RETIRE_CLASS.get(opcode, RETIRE_NORMAL)


def exec_kind_of(opcode: Opcode) -> int:
    flags = CLASSIFICATION_BY_OPCODE[opcode]
    if flags[0]:  # is_load
        return EXEC_LOAD
    if flags[3]:  # is_store_class
        return EXEC_AGU
    if opcode is Opcode.MUL:
        return EXEC_MUL
    if flags[6]:  # is_branch
        return EXEC_BRANCH
    return EXEC_ALU


def producer_keys_of(inst: Instruction) -> Tuple[int, ...]:
    """EDKs for which ``inst`` acts as a dependence producer.

    WAIT_ALL_KEYS claims every key so later consumers chain behind it.
    """
    if inst.opcode is Opcode.WAIT_ALL_KEYS:
        return _ALL_PRODUCER_KEYS
    if inst.edk_def != ZERO_KEY:
        return (inst.edk_def,)
    return ()


def ede_keys_of(inst: Instruction) -> Tuple[int, ...]:
    """Unique nonzero EDKs an instruction carries into the write buffer."""
    keys = []
    for key in (inst.edk_def, inst.edk_use, inst.edk_use2):
        if key != ZERO_KEY and key not in keys:
            keys.append(key)
    return tuple(keys)


class DynInst:
    """One dynamic instance of an instruction in the pipeline.

    Lifecycle: dispatched -> issued -> executed -> retired -> completed.
    ``executed`` means the functional unit work is done (address/data
    ready, load data returned); ``completed`` is the EDE notion of
    completion — for store-class instructions it happens *after* retirement
    when the write buffer push finishes (value visible / line persisted).

    The run loop fills the slots straight from a replay row (see
    :mod:`repro.pipeline.replay`); this constructor classifies a single
    instruction directly.
    """

    __slots__ = (
        "seq", "inst", "opcode",
        "is_load", "is_store", "is_writeback", "is_store_class",
        "is_memory", "is_barrier", "is_branch", "is_ede",
        "addr", "size", "words",
        "needs_write_buffer", "is_wait", "retire_class",
        "regs_outstanding", "e_deps_outstanding", "src_ids",
        "dispatch_cycle", "issue_cycle", "execute_done_cycle",
        "retire_cycle", "complete_cycle",
        "issued", "executed", "retired", "completed", "squashed",
        "store_epoch", "mem_epoch", "barrier_ready_cycle",
        "result_regs", "producer_keys", "exec_kind", "ede_keys",
    )

    def __init__(self, seq: int, inst: Instruction):
        self.seq = seq
        self.inst = inst
        opcode = inst.opcode
        self.opcode = opcode
        (self.is_load, self.is_store, self.is_writeback, self.is_store_class,
         self.is_memory, self.is_barrier, self.is_branch, self.is_ede,
         _enters_iq) = CLASSIFICATION_BY_OPCODE[opcode]
        addr = inst.addr
        self.addr = addr
        self.size = inst.size

        #: 8-byte-aligned words this memory op touches (for forwarding).
        if addr is None:
            self.words: Tuple[int, ...] = ()
        else:
            base = addr & ~7
            end = addr + inst.size - 1
            if base + 8 > end:
                self.words = (base,)
            else:
                self.words = tuple(range(base, end + 1, 8))

        #: Store-class instructions and JOIN occupy a write-buffer entry.
        self.needs_write_buffer = (
            self.is_store_class or opcode is Opcode.JOIN)
        self.is_wait = opcode in (Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS)
        self.retire_class = _RETIRE_CLASS.get(opcode, RETIRE_NORMAL)

        self.regs_outstanding = 0
        #: Producer seqs this instruction still waits on (IQ enforcement).
        #: Allocated lazily — most instructions never carry e-deps.
        self.e_deps_outstanding: Optional[Set[int]] = None
        #: Producer seqs carried to the write buffer (WB enforcement).
        self.src_ids: Tuple[int, ...] = ()

        self.dispatch_cycle = -1
        self.issue_cycle = -1
        self.execute_done_cycle = -1
        self.retire_cycle = -1
        self.complete_cycle = -1

        self.issued = False
        self.executed = False
        self.retired = False
        self.completed = False
        self.squashed = False

        self.store_epoch = 0
        self.mem_epoch = 0
        self.barrier_ready_cycle = -1

        #: Registers whose value this instruction produces.
        self.result_regs: Tuple[int, ...] = inst.dst
        #: EDKs this instruction produces (cleared on completion).
        self.producer_keys: Tuple[int, ...] = producer_keys_of(inst)
        #: Functional-unit class for issue (EXEC_* constants).
        self.exec_kind = exec_kind_of(opcode)
        #: Unique EDKs carried into the write buffer (Section V-D counters).
        self.ede_keys: Tuple[int, ...] = (
            ede_keys_of(inst) if self.is_ede else ())

    def touched_words(self) -> List[int]:
        """8-byte-aligned words this memory op touches (for forwarding)."""
        return list(self.words)

    def __repr__(self) -> str:
        return "DynInst(#%d %s)" % (self.seq, self.inst)
