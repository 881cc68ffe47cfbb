"""Object-publication kernel (Section VIII-B).

The Java memory model guarantees that ``final`` fields are initialized
before another thread can read them through a published reference; JVMs
(and C++ release stores) enforce this with a fence between the field
initialization stores and the store that publishes the object pointer.

EDE expresses the same thing without a fence: the last field store
produces a key, and the publication store consumes it — one-to-one
instruction ordering where today a `DMB` orders everything.

Per operation: allocate an object, initialize ``FIELDS`` fields, publish
its pointer into a shared slot.  Modes map as in the hazard kernel:
``dsb``/``dmb_st`` -> the fence version (DMB SY before the publish),
``ede`` -> field store produces / publish store consumes, ``none`` ->
unordered (incorrect; lower bound).
"""

from __future__ import annotations

from repro.core.edk import EdkAllocator
from repro.isa import instructions as ops
from repro.isa.program import TraceBuilder
from repro.nvmfw import codegen
from repro.nvmfw.framework import BuiltWorkload
from repro.nvmfw.layout import DEFAULT_LAYOUT
from repro.workloads.base import Scale, make_rng, register

#: Fields per published object.
FIELDS = 4

_HEAP_BASE = 128 << 20      # DRAM: publication is a volatile-memory pattern
_SLOTS_BASE = 96 << 20
_NUM_SLOTS = 64

_R_OBJ = 1
_R_VAL = 2
_R_SLOT = 3


@register("publication")
def build_publication(mode: str, scale: Scale) -> BuiltWorkload:
    builder = TraceBuilder()
    edks = EdkAllocator()
    rng = make_rng(scale)
    memory = {}
    base = codegen.base_mode(codegen.validate_mode(mode))
    use_ede = base == codegen.MODE_EDE
    # A conservative build keeps the JVM-style fence even under EDE —
    # redundant ordering the autotuner should be able to discharge.
    use_fence = (base in (codegen.MODE_DSB, codegen.MODE_DMB_ST)
                 or (codegen.is_conservative(mode)
                     and base != codegen.MODE_NONE))

    emit = builder.emit
    object_size = 8 * FIELDS
    for op_index in range(scale.total_ops):
        obj = _HEAP_BASE + op_index * object_size
        slot = _SLOTS_BASE + 8 * rng.randrange(_NUM_SLOTS)

        emit(ops.mov_imm(_R_OBJ, obj))
        key = edks.allocate() if use_ede else 0
        for field in range(FIELDS):
            addr = obj + 8 * field
            value = op_index * FIELDS + field
            memory[addr] = value
            emit(ops.mov_imm(_R_VAL, value))
            last = field == FIELDS - 1
            if use_ede and last:
                # The final field store is the dependence producer.
                emit(ops.store_ede(_R_VAL, _R_OBJ, edk_def=key, edk_use=0,
                                   offset=8 * field, addr=addr,
                                   comment="init:%d" % op_index))
            else:
                emit(ops.store(_R_VAL, _R_OBJ, offset=8 * field, addr=addr))
        if use_fence:
            emit(ops.dmb_sy())
        emit(ops.mov_imm(_R_SLOT, slot))
        if use_ede:
            emit(ops.store_ede(_R_OBJ, _R_SLOT, edk_def=0, edk_use=key,
                               addr=slot, comment="publish:%d" % op_index))
        else:
            emit(ops.store(_R_OBJ, _R_SLOT, addr=slot,
                           comment="publish:%d" % op_index))
        memory[slot] = obj

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
