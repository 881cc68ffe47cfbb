"""Columnar per-instruction replay metadata for the pipeline's run loop.

The timing core is trace-driven: the functional front end has already
resolved every effective address, so every *static* per-instruction fact
— classification flags, retire class, touched words, producer EDKs, DMB
epoch tags — is a function of the trace alone, not of the simulation.

:class:`TraceMeta` computes those facts in one prepass per built
workload, shared by every simulation of that trace (typically five
configurations).  It is four parallel columns indexed by trace position:
the trace itself, each instruction's static tail, the words it touches
and its DMB epoch (the address is read off the instruction).  The tail
holds every fact that depends only on the instruction's shape
(:class:`~repro.isa.instructions.InstructionShape`), computed once per
shape; tails, epochs and words tuples (one per distinct address and
size) are shared, so no column holds an object per instruction.
:class:`~repro.pipeline.core.OutOfOrderCore` dispatches straight off the
columns, filling each :class:`~repro.pipeline.dyninst.DynInst` with one
unpack of the shared tail.

An instruction's DMB epoch is the number of DMBs before it in the trace.
It feeds both the store and the memory epoch of a
:class:`~repro.pipeline.dyninst.DynInst`: every DMB, of either flavour,
bumps both, so they are always equal.  A squash refetch re-dispatches
the flushed DMBs, so the core adds the count of barriers re-dispatched
so far to the column epochs of refetched instructions.

Static tail layout (indices as the run loop reads them)::

    (opcode,
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

#: The static tail of every instruction, by instruction shape.  Shapes are
#: interned and few (tens per workload), so this stays small and is
#: shared by every trace in the process.
_STATIC_BY_SHAPE: dict = {}


def _static_tail(inst: Instruction) -> tuple:
    """The facts that depend only on ``inst``'s shape; memoised."""
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


class TraceMeta:
    """Precomputed replay metadata for one dynamic instruction trace:
    parallel columns indexed by trace position (see module docstring)."""

    __slots__ = ("trace", "tails", "words", "epochs", "has_dsb")

    def __init__(self, trace: Sequence[Instruction]):
        self.trace = trace
        self.tails: List[tuple] = []
        #: The 8-byte-aligned words each instruction touches.
        self.words: List[Tuple[int, ...]] = []
        self.epochs: List[int] = []
        tails_append = self.tails.append
        words_append = self.words.append
        epochs_append = self.epochs.append
        static_by_shape = _STATIC_BY_SHAPE
        #: A trace revisits few addresses: one tuple per (addr, size).
        words_by_access: dict = {}
        dmb_st = Opcode.DMB_ST
        dmb_sy = Opcode.DMB_SY
        dsb = Opcode.DSB_SY
        epoch = 0
        #: Whether any DSB SY is in the trace: only the DSB retire gate reads
        #: the oldest-incomplete heap early, so a DSB-free replay skips it.
        self.has_dsb = False
        for inst in trace:
            tail = static_by_shape.get(inst._shape)
            if tail is None:
                tail = _static_tail(inst)
            tails_append(tail)
            addr = inst.addr
            if addr is None:
                words_append(())
            else:
                size = inst.size
                words = words_by_access.get((addr, size))
                if words is None:
                    base = addr & ~7
                    end = addr + size - 1
                    if base + 8 > end:
                        words = (base,)
                    else:
                        words = tuple(range(base, end + 1, 8))
                    words_by_access[addr, size] = words
                words_append(words)
            epochs_append(epoch)
            # The dispatch stage bumps both epochs after a DMB of either
            # flavour dispatches (the barrier itself belongs to the old
            # epoch).
            opcode = tail[0]
            if opcode is dmb_st or opcode is dmb_sy:
                epoch += 1
            elif opcode is dsb:
                self.has_dsb = True

    def matches(self, trace: Sequence[Instruction]) -> bool:
        """Cheap sanity check that this metadata was built for ``trace``."""
        own = self.trace
        if len(own) != len(trace):
            return False
        if not own:
            return True
        return own[0] is trace[0] and own[-1] is trace[-1]


# Per-BuiltWorkload memoization.  BuiltWorkload is an eq=True dataclass and
# therefore unhashable, so the cache is keyed by id() with a weakref
# validity check (a dead or recycled id can never serve stale metadata) and a
# finalizer that evicts the entry when the workload is collected.
_META_BY_ID: dict = {}


def _evict(key: int) -> None:
    _META_BY_ID.pop(key, None)


def meta_for(built) -> TraceMeta:
    """Memoized :class:`TraceMeta` for a BuiltWorkload-like object.

    The prepass runs once per built workload per process; every
    configuration replaying the same trace (five per fence mode in the
    paper matrix) shares the columns.
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
