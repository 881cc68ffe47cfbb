"""Hazard-pointer announcement kernel (Section VIII, Figure 12).

The paper's future-work section shows that announcing a hazard pointer
needs a full fence (``DMB SY``) between the announcement store and the
validating re-load — a load-store ordering current ISAs cannot express any
other way — and that EDE eliminates it::

    str (1, 0), x3, [x2]   ; announce (dependence producer)
    ldr (0, 1), x4, [x1]   ; re-load  (dependence consumer)

This kernel runs the announcement sequence over a pool of elements, plus a
few "use the element" loads per iteration.  It is a volatile (DRAM)
workload: no persists, no undo logging.  Fence modes map as: ``dsb`` and
``dmb_st`` -> the Figure 12 code with ``DMB SY``; ``ede`` -> the EDE
variant; ``none`` -> no ordering (unsafe; for reference only).

At ``scale.cores == 1`` this is the historical single-core approximation
(no concurrent mutator: the validating re-load always succeeds).  At
``cores > 1`` it becomes the genuinely contended scenario the paper
gestures at: every core announces into its own slot on one shared
hazard-pointer cache line (false sharing), scans a neighbour's slot,
and occasionally *retires* pool elements — rebinding location cells that
other cores are concurrently traversing.  A mutation interleaved between
another core's announce and its validating re-load makes that core's
validation genuinely fail and take the retry path, so the per-core
traces depend on the seeded interleaving.
"""

from __future__ import annotations

import random

from repro.isa import instructions as ops
from repro.isa.program import TraceBuilder
from repro.nvmfw import codegen
from repro.nvmfw.framework import BuiltWorkload
from repro.nvmfw.layout import DEFAULT_LAYOUT
from repro.core.edk import EdkAllocator
from repro.workloads.base import Scale, make_rng, register

#: DRAM pool of shared elements the threads would contend on.
_POOL_BASE = 64 << 20
_POOL_ELEMENTS = 1024
#: This thread's hazard-pointer slot.  In multi-core builds core ``c``
#: announces into ``_HAZARD_SLOT + 8 * c`` — all on one line, by design.
_HAZARD_SLOT = 32 << 20

_R_LOCP = 1    # pointer to the element's location
_R_HAZ = 2     # hazard pointer slot
_R_ELEM = 3    # loaded element location
_R_CHECK = 4   # re-loaded element location
_R_VAL = 5     # element payload
_R_SCAN = 6    # neighbour's hazard slot (reclamation scan)
_R_MUTA = 7    # mutated location address
_R_MUTV = 8    # mutated location value

#: Chance per operation that a core retires (rebinds) a pool element.
_MUTATE_NUM, _MUTATE_DEN = 1, 4


@register("hazard", multicore=True)
def build_hazard(mode: str, scale: Scale) -> BuiltWorkload:
    if scale.cores > 1:
        return _build_hazard_multicore(mode, scale)
    builder = TraceBuilder()
    edks = EdkAllocator()
    rng = make_rng(scale)
    memory = {}
    base = codegen.base_mode(codegen.validate_mode(mode))
    use_ede = base == codegen.MODE_EDE
    use_fence = base in (codegen.MODE_DSB, codegen.MODE_DMB_ST)

    # Element location cells hold pointers to payloads further up the pool.
    payload_base = _POOL_BASE + _POOL_ELEMENTS * 8
    for index in range(_POOL_ELEMENTS):
        memory[_POOL_BASE + 8 * index] = payload_base + 64 * index
        memory[payload_base + 64 * index] = index
    memory[_HAZARD_SLOT] = 0

    emit = builder.emit
    for _ in range(scale.total_ops):
        index = rng.randrange(_POOL_ELEMENTS)
        loc_addr = _POOL_BASE + 8 * index
        payload = memory[loc_addr]

        emit(ops.mov_imm(_R_LOCP, loc_addr))
        emit(ops.mov_imm(_R_HAZ, _HAZARD_SLOT))
        emit(ops.ldr(_R_ELEM, _R_LOCP, addr=loc_addr))
        if use_ede:
            key = edks.allocate()
            emit(ops.store_ede(_R_ELEM, _R_HAZ, edk_def=key, edk_use=0,
                               addr=_HAZARD_SLOT, comment="announce"))
            emit(ops.ldr_ede(_R_CHECK, _R_LOCP, edk_def=0, edk_use=key,
                             addr=loc_addr))
        else:
            emit(ops.store(_R_ELEM, _R_HAZ, addr=_HAZARD_SLOT,
                           comment="announce"))
            if use_fence:
                emit(ops.dmb_sy())
            emit(ops.ldr(_R_CHECK, _R_LOCP, addr=loc_addr))
        memory[_HAZARD_SLOT] = payload
        emit(ops.cmp(_R_CHECK, _R_ELEM))
        # Perfectly predicted not-taken branch (no concurrent mutator).
        emit(ops.Instruction(ops.Opcode.B_NE, target=None, imm=0))
        # Use the protected element: a dependent load plus some ALU work.
        emit(ops.ldr(_R_VAL, _R_ELEM, addr=payload))
        emit(ops.add(_R_VAL, _R_VAL, imm=1))
        emit(ops.add(_R_VAL, _R_VAL, imm=2))

    return BuiltWorkload(
        trace=builder.finish(),
        obligations=[],
        line_snapshots={},
        committed_writes=[],
        final_memory=memory,
        baseline_memory=dict(memory),
        layout=DEFAULT_LAYOUT,
        ops=scale.total_ops,
        txns=0,
    )


def _build_hazard_multicore(mode: str, scale: Scale) -> BuiltWorkload:
    """The contended N-core variant (volatile; driven by the interleaver)."""
    from repro.multicore.build import (
        MultiBuiltWorkload,
        PartitionedEdkAllocator,
        merge_core_traces,
        per_core_rng_seed,
        run_schedule,
    )
    from repro.multicore.layout import core_layout

    cores = scale.cores
    base = codegen.base_mode(codegen.validate_mode(mode))
    use_ede = base == codegen.MODE_EDE
    use_fence = base in (codegen.MODE_DSB, codegen.MODE_DMB_ST)

    memory = {}
    payload_base = _POOL_BASE + _POOL_ELEMENTS * 8
    for index in range(_POOL_ELEMENTS):
        memory[_POOL_BASE + 8 * index] = payload_base + 64 * index
        memory[payload_base + 64 * index] = index
    for core in range(cores):
        memory[_HAZARD_SLOT + 8 * core] = 0

    builders = [TraceBuilder() for _ in range(cores)]
    edks = [PartitionedEdkAllocator(core, cores) for core in range(cores)]
    rngs = [random.Random(per_core_rng_seed(scale.seed, core))
            for core in range(cores)]
    state = [{} for _ in range(cores)]

    def emit_validate(core: int, loc_addr: int) -> None:
        """The validating re-load + compare against the announced pointer."""
        emit = builders[core].emit
        if use_ede:
            emit(ops.ldr_ede(_R_CHECK, _R_LOCP, edk_def=0,
                             edk_use=state[core]["key"], addr=loc_addr))
        else:
            if use_fence:
                emit(ops.dmb_sy())
            emit(ops.ldr(_R_CHECK, _R_LOCP, addr=loc_addr))
        emit(ops.cmp(_R_CHECK, _R_ELEM))
        emit(ops.Instruction(ops.Opcode.B_NE, target=None, imm=0))

    def emit_announce(core: int, loc_addr: int) -> None:
        """Load the element pointer and announce it in this core's slot."""
        emit = builders[core].emit
        slot = _HAZARD_SLOT + 8 * core
        emit(ops.mov_imm(_R_LOCP, loc_addr))
        emit(ops.mov_imm(_R_HAZ, slot))
        emit(ops.ldr(_R_ELEM, _R_LOCP, addr=loc_addr))
        if use_ede:
            state[core]["key"] = edks[core].allocate()
            emit(ops.store_ede(_R_ELEM, _R_HAZ,
                               edk_def=state[core]["key"], edk_use=0,
                               addr=slot, comment="announce"))
        else:
            emit(ops.store(_R_ELEM, _R_HAZ, addr=slot, comment="announce"))
        memory[slot] = memory[loc_addr]
        state[core]["observed"] = memory[loc_addr]

    def announce_unit(core: int, index: int):
        loc_addr = _POOL_BASE + 8 * index

        def unit() -> None:
            state[core]["loc"] = loc_addr
            emit_announce(core, loc_addr)

        return unit

    def validate_unit(core: int, mutate_index, mutate_payload: int):
        def unit() -> None:
            loc_addr = state[core]["loc"]
            if memory[loc_addr] != state[core]["observed"]:
                # A concurrent retirement rebound the location between the
                # announce and the re-load: the compare fails and the
                # protocol retries — announce the new pointer, re-validate.
                emit_validate(core, loc_addr)
                emit_announce(core, loc_addr)
            emit_validate(core, loc_addr)
            # Use the protected element, then scan a neighbour's slot (the
            # reclamation-side read that makes the shared line ping-pong).
            emit = builders[core].emit
            payload = memory[loc_addr]
            emit(ops.ldr(_R_VAL, _R_ELEM, addr=payload))
            emit(ops.add(_R_VAL, _R_VAL, imm=1))
            neighbour = _HAZARD_SLOT + 8 * ((core + 1) % cores)
            emit(ops.mov_imm(_R_SCAN, neighbour))
            emit(ops.ldr(_R_SCAN, _R_SCAN, addr=neighbour))
            if mutate_index is not None:
                # Retire an element: rebind its location cell to a
                # different payload, invalidating concurrent traversals.
                mut_addr = _POOL_BASE + 8 * mutate_index
                emit(ops.mov_imm(_R_MUTA, mut_addr))
                emit(ops.mov_imm(_R_MUTV, mutate_payload))
                emit(ops.store(_R_MUTV, _R_MUTA, addr=mut_addr))
                memory[mut_addr] = mutate_payload

        return unit

    streams = []
    for core in range(cores):
        rng = rngs[core]
        units = []
        for _ in range(scale.total_ops):
            index = rng.randrange(_POOL_ELEMENTS)
            if rng.randrange(_MUTATE_DEN) < _MUTATE_NUM:
                mutate_index = rng.randrange(_POOL_ELEMENTS)
                mutate_payload = payload_base + 64 * rng.randrange(
                    _POOL_ELEMENTS)
            else:
                mutate_index, mutate_payload = None, 0
            units.append(announce_unit(core, index))
            units.append(validate_unit(core, mutate_index, mutate_payload))
        streams.append(units)
    run_schedule(streams, scale)

    core_traces = [builder.finish() for builder in builders]
    return MultiBuiltWorkload(
        trace=merge_core_traces(core_traces),
        obligations=[],
        line_snapshots={},
        committed_writes=[],
        final_memory=memory,
        baseline_memory=dict(memory),
        layout=DEFAULT_LAYOUT,
        ops=scale.total_ops * cores,
        txns=0,
        cores=cores,
        core_traces=core_traces,
        core_layouts=[core_layout(core) for core in range(cores)],
        core_committed_writes=[[] for _ in range(cores)],
        core_txn_offsets=[0] * cores,
    )
