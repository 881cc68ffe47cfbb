"""Packed per-instruction replay metadata for the pipeline's run loop.

The timing core is trace-driven: the functional front end has already
resolved every effective address, so every *static* per-instruction fact
— classification flags, retire class, touched words, producer EDKs, DMB
epoch tags — is a function of the trace alone, not of the simulation.

:class:`TraceMeta` computes those facts in a single prepass: one packed
row (a plain tuple — tuple indexing beats attribute lookups in the hot
loop) per trace index, computed once per built workload and shared by
every simulation of that trace (typically five configurations).
:class:`~repro.pipeline.core.OutOfOrderCore` dispatches straight off the
rows, filling each :class:`~repro.pipeline.dyninst.DynInst` with one
tuple unpack.

A row's DMB epoch is the number of DMBs before it in the trace.  It
feeds both the store and the memory epoch of a
:class:`~repro.pipeline.dyninst.DynInst`: every DMB, of either flavour,
bumps both, so they are always equal.  A squash refetch re-dispatches
the flushed DMBs, so the core adds the count of barriers re-dispatched
so far to the row epochs of refetched instructions.

Only four fields of a row depend on where the instruction sits in the
trace: the instruction itself, its resolved address, the words it
touches and its DMB epoch.  Every other field is a function of the
instruction's shape (:class:`~repro.isa.instructions.InstructionShape`),
so the prepass computes those once per shape and a row is the dynamic
four concatenated with the shape's static tail.

Row layout (index constants below)::

    (inst, addr, words, epoch,
     opcode,
     is_load, is_store, is_writeback, is_store_class,
     is_memory, is_barrier, is_branch, is_ede,
     enters_iq, needs_write_buffer, is_wait, retire_class,
     size, producer_keys, exec_kind, result_regs,
     timing_src_regs, timing_dst_regs, is_dsb, is_halt,
     consumer_keys, ede_keys)
"""

from __future__ import annotations

import weakref
from typing import List, Sequence, Tuple

from repro.isa.instructions import CLASSIFICATION_BY_OPCODE, Instruction
from repro.isa.opcodes import Opcode
from repro.pipeline.dyninst import (
    ede_keys_of,
    exec_kind_of,
    producer_keys_of,
    retire_class_of,
)

# Row field indices (keep in sync with the row unpack in OutOfOrderCore._loop).
R_INST = 0
R_ADDR = 1
R_WORDS = 2
R_EPOCH = 3
R_OPCODE = 4
R_IS_LOAD = 5
R_IS_STORE = 6
R_IS_WRITEBACK = 7
R_IS_STORE_CLASS = 8
R_IS_MEMORY = 9
R_IS_BARRIER = 10
R_IS_BRANCH = 11
R_IS_EDE = 12
R_ENTERS_IQ = 13
R_NEEDS_WB = 14
R_IS_WAIT = 15
R_RETIRE_CLASS = 16
R_SIZE = 17
R_PRODUCER_KEYS = 18
R_EXEC_KIND = 19
R_RESULT_REGS = 20
R_SRC_REGS = 21
R_DST_REGS = 22
R_IS_DSB = 23
R_IS_HALT = 24
R_CONSUMER_KEYS = 25
R_EDE_KEYS = 26

#: The static tail of a row (fields ``R_OPCODE`` on), by instruction
#: shape.  Shapes are interned and few (tens per workload), so this stays
#: small and is shared by every trace in the process.
_STATIC_BY_SHAPE: dict = {}


def _static_tail(inst: Instruction) -> tuple:
    """The row fields that depend only on ``inst``'s shape; memoised."""
    opcode = inst.opcode
    (is_load, is_store, is_writeback, is_store_class, is_memory,
     is_barrier, is_branch, is_ede,
     enters_iq) = CLASSIFICATION_BY_OPCODE[opcode]
    tail = (
        opcode,
        is_load, is_store, is_writeback, is_store_class,
        is_memory, is_barrier, is_branch, is_ede,
        enters_iq,
        is_store_class or opcode is Opcode.JOIN,
        opcode is Opcode.WAIT_KEY or opcode is Opcode.WAIT_ALL_KEYS,
        retire_class_of(opcode),
        inst.size, producer_keys_of(inst), exec_kind_of(opcode), inst.dst,
        inst.timing_src_regs, inst.timing_dst_regs,
        opcode is Opcode.DSB_SY, opcode is Opcode.HALT,
        inst.consumer_keys(),
        ede_keys_of(inst) if is_ede else (),
    )
    _STATIC_BY_SHAPE[inst._shape] = tail
    return tail


def build_rows(trace: Sequence[Instruction]) -> List[tuple]:
    """One packed metadata row per trace index (see module docstring)."""
    rows: List[tuple] = []
    append = rows.append
    static_by_shape = _STATIC_BY_SHAPE
    dmb_st = Opcode.DMB_ST
    dmb_sy = Opcode.DMB_SY
    epoch = 0
    for inst in trace:
        tail = static_by_shape.get(inst._shape)
        if tail is None:
            tail = _static_tail(inst)
        addr = inst.addr
        if addr is None:
            words: Tuple[int, ...] = ()
        else:
            base = addr & ~7
            end = addr + inst.size - 1
            if base + 8 > end:
                words = (base,)
            else:
                words = tuple(range(base, end + 1, 8))
        append((inst, addr, words, epoch) + tail)
        # The dispatch stage bumps both epochs after a DMB of either
        # flavour dispatches (the barrier itself belongs to the old epoch).
        opcode = inst.opcode
        if opcode is dmb_st or opcode is dmb_sy:
            epoch += 1
    return rows


class TraceMeta:
    """Precomputed replay metadata for one dynamic instruction trace."""

    __slots__ = ("rows", "length", "has_dsb")

    def __init__(self, trace: Sequence[Instruction]):
        self.rows = build_rows(trace)
        self.length = len(self.rows)
        #: Whether any DSB SY is in the trace.  Only the DSB retire gate
        #: reads the oldest-incomplete heap before the final HALT, so a
        #: DSB-free replay skips maintaining it entirely.
        self.has_dsb = any(row[R_IS_DSB] for row in self.rows)

    def matches(self, trace: Sequence[Instruction]) -> bool:
        """Cheap sanity check that this metadata was built for ``trace``."""
        rows = self.rows
        if self.length != len(trace):
            return False
        if not rows:
            return True
        return (rows[0][R_INST] is trace[0]
                and rows[-1][R_INST] is trace[-1])


# Per-BuiltWorkload memoization.  BuiltWorkload is an eq=True dataclass and
# therefore unhashable, so the cache is keyed by id() with a weakref
# validity check (a dead or recycled id can never serve stale rows) and a
# finalizer that evicts the entry when the workload is collected.
_META_BY_ID: dict = {}


def _evict(key: int) -> None:
    _META_BY_ID.pop(key, None)


def meta_for(built) -> TraceMeta:
    """Memoized :class:`TraceMeta` for a BuiltWorkload-like object.

    The prepass runs once per built workload per process; every
    configuration replaying the same trace (five per fence mode in the
    paper matrix) shares the rows.
    """
    key = id(built)
    cached = _META_BY_ID.get(key)
    if cached is not None:
        ref, meta = cached
        if ref() is built:
            return meta
    meta = TraceMeta(built.trace)
    try:
        ref = weakref.ref(built)
        weakref.finalize(built, _evict, key)
    except TypeError:
        return meta  # not weakref-able: never cache, never serve stale
    _META_BY_ID[key] = (ref, meta)
    return meta
