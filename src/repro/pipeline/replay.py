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

A row's DMB epoch is the number of DMBs before it in the trace.  A
squash refetch re-dispatches the flushed DMBs, so the core adds the
count of barriers re-dispatched so far to the row epochs of refetched
instructions.

Row layout (index constants below)::

    (inst, opcode,
     is_load, is_store, is_writeback, is_store_class,
     is_memory, is_barrier, is_branch, is_ede,
     enters_iq, needs_write_buffer, is_wait, retire_class,
     addr, size, words, producer_keys, exec_kind,
     store_epoch, mem_epoch, result_regs,
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
R_OPCODE = 1
R_IS_LOAD = 2
R_IS_STORE = 3
R_IS_WRITEBACK = 4
R_IS_STORE_CLASS = 5
R_IS_MEMORY = 6
R_IS_BARRIER = 7
R_IS_BRANCH = 8
R_IS_EDE = 9
R_ENTERS_IQ = 10
R_NEEDS_WB = 11
R_IS_WAIT = 12
R_RETIRE_CLASS = 13
R_ADDR = 14
R_SIZE = 15
R_WORDS = 16
R_PRODUCER_KEYS = 17
R_EXEC_KIND = 18
R_STORE_EPOCH = 19
R_MEM_EPOCH = 20
R_RESULT_REGS = 21
R_SRC_REGS = 22
R_DST_REGS = 23
R_IS_DSB = 24
R_IS_HALT = 25
R_CONSUMER_KEYS = 26
R_EDE_KEYS = 27


def build_rows(trace: Sequence[Instruction]) -> List[tuple]:
    """One packed metadata row per trace index (see module docstring)."""
    rows: List[tuple] = []
    append = rows.append
    classify = CLASSIFICATION_BY_OPCODE
    join_op = Opcode.JOIN
    wait_key_op = Opcode.WAIT_KEY
    wait_all_op = Opcode.WAIT_ALL_KEYS
    dmb_st = Opcode.DMB_ST
    dmb_sy = Opcode.DMB_SY
    dsb_sy = Opcode.DSB_SY
    halt_op = Opcode.HALT
    store_epoch = 0
    mem_epoch = 0
    for inst in trace:
        opcode = inst.opcode
        (is_load, is_store, is_writeback, is_store_class, is_memory,
         is_barrier, is_branch, is_ede, enters_iq) = classify[opcode]
        addr = inst.addr
        size = inst.size
        if addr is None:
            words: Tuple[int, ...] = ()
        else:
            base = addr & ~7
            end = addr + size - 1
            if base + 8 > end:
                words = (base,)
            else:
                words = tuple(range(base, end + 1, 8))
        append((
            inst, opcode,
            is_load, is_store, is_writeback, is_store_class,
            is_memory, is_barrier, is_branch, is_ede,
            enters_iq,
            is_store_class or opcode is join_op,
            opcode is wait_key_op or opcode is wait_all_op,
            retire_class_of(opcode),
            addr, size, words,
            producer_keys_of(inst), exec_kind_of(opcode),
            store_epoch, mem_epoch, inst.dst,
            inst.timing_src_regs, inst.timing_dst_regs,
            opcode is dsb_sy, opcode is halt_op,
            inst.consumer_keys(),
            ede_keys_of(inst) if is_ede else (),
        ))
        # The dispatch stage bumps both epochs after a DMB of either
        # flavour dispatches (the barrier itself belongs to the old epoch).
        if not enters_iq and (opcode is dmb_st or opcode is dmb_sy):
            store_epoch += 1
            mem_epoch += 1
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
