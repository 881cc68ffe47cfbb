"""The per-instruction footprint of a built trace and its replay metadata.

A paper-matrix pass keeps several traces of tens of thousands of
instructions alive at once, and the cyclic GC walks every tracked object
they hold.  An :class:`~repro.isa.instructions.Instruction` is one slotted
object with no ``__dict__``, and :class:`~repro.pipeline.replay.TraceMeta`
is columns of shared objects, with no per-instruction row.
"""

import dataclasses
import gc

import pytest

import repro.workloads  # noqa: F401  (registers workloads)
from repro.isa import instructions as ops
from repro.pipeline.replay import TraceMeta
from repro.workloads import Scale
from repro.workloads import base as workload_base

SCALE = Scale(10, 8)

#: GC-tracked objects per instruction a build may leave (the instruction
#: itself, plus the workload's other state spread over its trace).
MAX_TRACKED_PER_INST_AFTER_BUILD = 1.5
#: GC-tracked objects per instruction the replay metadata may add.
MAX_TRACKED_PER_INST_FOR_META = 0.05


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_an_instruction_has_no_dict():
    inst = ops.store_ede(1, 2, 3, 4, addr=64, comment="c")
    assert not hasattr(inst, "__dict__")
    assert not hasattr(inst.with_addr(72), "__dict__")


def test_assigning_a_field_raises():
    inst = ops.store_ede(1, 2, 3, 4, addr=64)
    for field in dataclasses.fields(inst):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, field.name, getattr(inst, field.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.extra = 1


@pytest.mark.parametrize("workload,mode", [("btree", "ede"),
                                           ("ctree", "dsb")])
def test_tracked_objects_per_instruction(workload, mode):
    # Fill the per-shape memos first: they are per process, not per trace.
    TraceMeta(workload_base.build(workload, mode, SCALE).trace)
    before = tracked_objects()
    built = workload_base.build(workload, mode, SCALE)
    after_build = tracked_objects()
    meta = TraceMeta(built.trace)
    after_meta = tracked_objects()
    n = len(built.trace)
    assert n > 5000
    assert (after_build - before) / n <= MAX_TRACKED_PER_INST_AFTER_BUILD
    assert (after_meta - after_build) / n <= MAX_TRACKED_PER_INST_FOR_META
    assert len(meta.tails) == n
