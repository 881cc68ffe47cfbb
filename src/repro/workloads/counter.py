"""Lock-protected persistent counter (concurrent, multi-core).

The classic smallest concurrent persistent workload: N cores take a
shared spinlock, run one failure-atomic transaction of ``ops_per_txn``
counter increments, and release the lock.  Its contention profile is the
inverse of the hazard kernel's: the *persistent* cells are per-core and
line-exclusive (so per-core undo recovery stays sound), while all the
cross-core traffic concentrates on a single volatile DRAM lock line that
every acquire load and release store bounces between the cores'
caches.

At N=1 this is an ``update``-like single-core workload (the lock
sequence still executes, uncontended).  The lock word is DRAM-resident
and carries no persist obligations; crash recovery never looks at it.
"""

from __future__ import annotations

import random

from repro.isa import instructions as ops
from repro.nvmfw.framework import BuiltWorkload
from repro.nvmfw.layout import DRAM_SCRATCH_BASE
from repro.workloads.base import Scale, register

#: The shared spinlock word (volatile DRAM, its own cache line).
_LOCK_ADDR = DRAM_SCRATCH_BASE + (1 << 20)

_R_LOCK = 20    # lock word address
_R_LOCKV = 21   # lock word value


def emit_lock_acquire(builder, lock_addr: int) -> None:
    """Uncontended spinlock acquire: load, test, store.

    The trace is execution-driven, so the branch is the perfectly
    predicted not-taken test-and-retry exit; the timing cost is the
    load (which the coherence model makes a remote-line miss under
    contention), the compare, and the owning store (which invalidates
    the other cores' copies).
    """
    emit = builder.emit
    emit(ops.mov_imm(_R_LOCK, lock_addr))
    emit(ops.ldr(_R_LOCKV, _R_LOCK, addr=lock_addr))
    emit(ops.cmp(_R_LOCKV, imm=0))
    emit(ops.Instruction(ops.Opcode.B_NE, target=None, imm=0))
    emit(ops.mov_imm(_R_LOCKV, 1))
    emit(ops.store(_R_LOCKV, _R_LOCK, addr=lock_addr))


def emit_lock_release(builder, lock_addr: int) -> None:
    emit = builder.emit
    emit(ops.mov_imm(_R_LOCK, lock_addr))
    emit(ops.mov_imm(_R_LOCKV, 0))
    emit(ops.store(_R_LOCKV, _R_LOCK, addr=lock_addr))


@register("counter", multicore=True)
def build_counter(mode: str, scale: Scale) -> BuiltWorkload:
    # Imported lazily: the workload registry loads at package-import time,
    # before the multicore package (which reaches back into the harness)
    # can be imported safely.
    from repro.multicore.build import MulticoreBuild, per_core_rng_seed

    cores = scale.cores
    ctx = MulticoreBuild(mode, cores, scale)

    cells = []
    for core in range(cores):
        fw = ctx.frameworks[core]
        cell = fw.alloc(64, 64)  # line-exclusive: one counter per line
        fw.raw_store(cell, 0)
        cells.append(cell)
    ctx.frameworks[0].raw_store(_LOCK_ADDR, 0)
    ctx.freeze_baseline()
    ctx.track_writes()

    rngs = [random.Random(per_core_rng_seed(scale.seed, core))
            for core in range(cores)]

    def txn_unit(core: int):
        fw = ctx.frameworks[core]
        cell = cells[core]
        rng = rngs[core]

        def unit() -> None:
            emit_lock_acquire(fw.builder, _LOCK_ADDR)
            fw.tx_begin()
            for _ in range(scale.ops_per_txn):
                fw.write(cell, fw.peek(cell) + rng.randrange(1, 8))
            fw.tx_commit()
            emit_lock_release(fw.builder, _LOCK_ADDR)

        return unit

    streams = [[txn_unit(core) for _ in range(scale.txns)]
               for core in range(cores)]
    ctx.run(streams)
    return ctx.finish()
