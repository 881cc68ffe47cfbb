"""The per-shape memo behind :class:`~repro.isa.instructions.Instruction`.

An instruction's validation and its derived views (timing registers,
consumer keys) come from an interned
:class:`~repro.isa.instructions.InstructionShape`.  These tests check that
the memo never lets an invalid instruction through, and that every way of
making an instruction (constructor, ``dataclasses.replace``, pickle, the
interpreter's address copy) gives the fields and views the per-instance
computation gave, and that the per-shape repr template renders exactly
the dataclass repr.
"""

import copy
import dataclasses
import pickle

import pytest

import repro.workloads  # noqa: F401  (registers workloads)
from repro.isa import instructions as ops
from repro.isa.instructions import FLAGS_REG, Instruction, shape_of
from repro.isa.machine import _with_addr
from repro.isa.opcodes import CONDITIONAL_BRANCH_OPCODES, Opcode
from repro.nvmfw.codegen import ALL_MODES, conservative_mode
from repro.workloads import Scale
from repro.workloads import base as workload_base

TEST_SCALE = Scale(ops_per_txn=4, txns=3)


def reference_views(inst):
    """(consumer_keys, timing_src_regs, timing_dst_regs) computed from the
    fields alone, as each instruction computed them for itself."""
    keys = tuple(k for k in (inst.edk_use, inst.edk_use2) if k != 0)
    src = tuple(r for r in inst.src if r != 31)
    if inst.opcode in CONDITIONAL_BRANCH_OPCODES:
        src += (FLAGS_REG,)
    dst = tuple(r for r in inst.dst if r != 31)
    if inst.opcode is Opcode.CMP:
        dst += (FLAGS_REG,)
    elif inst.opcode is Opcode.BL:
        dst += (30,)
    return keys, src, dst


def views(inst):
    return inst.consumer_keys(), inst.timing_src_regs, inst.timing_dst_regs


def fields(inst):
    return tuple(getattr(inst, f.name) for f in dataclasses.fields(inst))


# Every invalid case, each right after a valid instruction of an equal
# (or nearly equal) shape was memoised.
INVALID = {
    "edk_out_of_range": (
        lambda: ops.store_ede(1, 2, edk_def=15, edk_use=0),
        lambda: ops.store_ede(1, 2, edk_def=16, edk_use=0),
        "EDK out of range"),
    "edk_negative": (
        lambda: ops.store_ede(1, 2, edk_def=0, edk_use=1),
        lambda: ops.store_ede(1, 2, edk_def=0, edk_use=-1),
        "EDK out of range"),
    "edk_bool_equal_to_valid_key": (
        lambda: ops.store_ede(1, 2, edk_def=1, edk_use=0),
        lambda: ops.store_ede(1, 2, edk_def=True, edk_use=0),
        "EDK must be an int"),
    "edk_float_equal_to_valid_key": (
        lambda: ops.join(3, 1, 2),
        lambda: ops.join(3, 1.0, 2),
        "EDK must be an int"),
    "size": (
        lambda: Instruction(Opcode.LDR, dst=(1,), src=(2,), size=4),
        lambda: Instruction(Opcode.LDR, dst=(1,), src=(2,), size=3),
        "invalid access size"),
    "keys_on_non_ede_opcode": (
        lambda: Instruction(Opcode.STR_EDE, src=(1, 2), edk_def=1),
        lambda: Instruction(Opcode.STR, src=(1, 2), edk_def=1),
        "cannot carry EDK operands"),
    "edk_use2_off_join": (
        lambda: ops.join(1, 2, 3),
        lambda: Instruction(Opcode.STR_EDE, src=(1, 2), edk_use2=3),
        "only valid on JOIN"),
}


class TestValidation:
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_shape_raises_every_time(self, case):
        valid, invalid, message = INVALID[case]
        valid()
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                invalid()
        valid()
        with pytest.raises(ValueError, match=message):
            invalid()

    def test_invalid_shape_is_not_interned(self):
        key = (Opcode.LDR, (1,), (2,), 0, 0, 0, 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid access size"):
                shape_of(key)

    def test_frozen(self):
        inst = ops.store_ede(1, 2, 3, 4, addr=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.addr = 72
        with pytest.raises(dataclasses.FrozenInstanceError):
            del inst.opcode


class TestShapes:
    def test_equal_shapes_share_one_object(self):
        a = ops.store_ede(1, 2, 3, 4, offset=8, addr=64, comment="a")
        b = ops.store_ede(1, 2, 3, 4, offset=16, addr=128, comment="b")
        assert a._shape is b._shape
        assert ops.store_ede(1, 2, 3, 5)._shape is not a._shape

    def test_shape_pickles_to_the_interned_object(self):
        inst = ops.join(3, 1, 2)
        assert pickle.loads(pickle.dumps(inst._shape)) is inst._shape
        assert copy.deepcopy(inst._shape) is inst._shape

    def test_a_trace_has_few_shapes(self):
        trace = workload_base.build("btree", "ede", TEST_SCALE).trace
        assert len({id(inst._shape) for inst in trace}) < len(trace) // 20


@pytest.mark.parametrize("mode", ALL_MODES)
def test_trace_views_match_per_instruction_computation(mode):
    for workload in workload_base.workload_names():
        for inst in workload_base.build(workload, mode, TEST_SCALE).trace:
            assert views(inst) == reference_views(inst), inst


SAMPLES = [
    ops.nop(), ops.halt(), ops.mov_imm(3, 7), ops.add(1, 2, 3),
    ops.sub(31, 2, imm=4), ops.cmp(1, imm=3),
    ops.ldr(1, 0, offset=8, addr=72, comment="load"),
    ops.ldr_ede(1, 0, edk_def=2, edk_use=3, addr=64),
    ops.store(3, 0, addr=64), ops.stp(0, 1, 2, addr=0),
    ops.store_ede(31, 2, edk_def=0, edk_use=5, addr=8, comment="s1"),
    ops.stp_ede(0, 1, 2, edk_def=4, edk_use=0, addr=16),
    ops.dc_cvap(1, addr=64), ops.dc_cvap_ede(1, edk_def=3, edk_use=1, addr=0),
    ops.dsb_sy(), ops.dmb_st(), ops.dmb_sy(), ops.join(3, 1, 2),
    ops.join(3, 0, 2), ops.wait_key(4), ops.wait_all_keys(),
    ops.branch("loop"), ops.branch_cond(Opcode.B_NE, "loop"),
    Instruction(Opcode.BL, target="f"), Instruction(Opcode.RET, src=(30,)),
]


@pytest.mark.parametrize("inst", SAMPLES, ids=lambda inst: inst.mnemonic())
class TestCopies:
    def test_views(self, inst):
        assert views(inst) == reference_views(inst)

    def test_eq_hash_repr(self, inst):
        twin = Instruction(**{f.name: getattr(inst, f.name)
                              for f in dataclasses.fields(inst)})
        assert twin == inst and hash(twin) == hash(inst)
        assert repr(twin) == repr(inst)
        assert repr(inst).startswith("Instruction(opcode=")
        assert "_shape" not in repr(inst)
        assert dataclasses.replace(inst, imm=inst.imm + 1) != inst

    def test_replace(self, inst):
        moved = dataclasses.replace(inst, addr=4096)
        assert moved.addr == 4096
        assert fields(moved)[:7] == fields(inst)[:7]
        assert views(moved) == views(inst)
        assert moved._shape is inst._shape
        assert dataclasses.replace(moved, addr=inst.addr) == inst

    def test_pickle_round_trip(self, inst):
        back = pickle.loads(pickle.dumps(inst))
        assert fields(back) == fields(inst)
        assert back == inst and hash(back) == hash(inst)
        assert views(back) == views(inst)
        assert back._shape is inst._shape

    def test_with_addr(self, inst):
        moved = _with_addr(inst, 4096)
        assert moved == dataclasses.replace(inst, addr=4096)
        assert views(moved) == views(inst)
        assert moved._shape is inst._shape


# --- repr from the per-shape template ----------------------------------------


def dataclass_repr(inst):
    """The field-by-field format of a dataclass repr."""
    return "%s(%s)" % (type(inst).__qualname__, ", ".join(
        "%s=%r" % (f.name, getattr(inst, f.name))
        for f in dataclasses.fields(inst)))


REPR_MODES = ("ede", "dsb") + tuple(conservative_mode(m) for m in ALL_MODES)


@pytest.mark.parametrize("mode", REPR_MODES)
def test_trace_repr_matches_dataclass_format(mode):
    checked = 0
    for workload in workload_base.workload_names():
        traces = [workload_base.build(workload, mode, TEST_SCALE).trace]
        if workload in workload_base._MULTICORE:
            built = workload_base.build(
                workload, mode, dataclasses.replace(TEST_SCALE, cores=2))
            traces.append(built.trace)
            traces.extend(built.core_traces)
        for trace in traces:
            for inst in trace:
                assert repr(inst) == dataclass_repr(inst)
            checked += len(trace)
    assert checked > 1000


ODD_SPELLINGS = {
    "percent_in_comment": ops.store(1, 2, addr=64, comment="100% %s %r %%"),
    "branch_target": ops.branch("loop"),
    "cond_branch_target": ops.branch_cond(Opcode.B_EQ, "done%d"),
    "size_16": ops.stp_ede(0, 1, 2, edk_def=4, edk_use=0, addr=16),
    "size_given_as_float": Instruction(Opcode.LDR, dst=(1,), src=(2,),
                                       size=8.0),
    "edk_given_as_false": Instruction(Opcode.STR_EDE, src=(1, 2),
                                      edk_def=False),
    "opcode_given_as_int": Instruction(int(Opcode.NOP)),
    "register_given_as_bool": Instruction(Opcode.MOV, dst=(True,), imm=-3),
    "join_three_keys": ops.join(3, 1, 2),
    "wait_key": ops.wait_key(7),
}


@pytest.mark.parametrize("name", sorted(ODD_SPELLINGS))
def test_odd_spellings_repr_as_the_dataclass(name):
    inst = ODD_SPELLINGS[name]
    assert repr(inst) == dataclass_repr(inst)
    for copy_ in (pickle.loads(pickle.dumps(inst)), _with_addr(inst, 4096),
                  dataclasses.replace(inst, comment="50%")):
        assert repr(copy_) == dataclass_repr(copy_)


@pytest.mark.parametrize("plain_first", [True, False])
def test_equal_spellings_keep_their_own_repr(plain_first):
    # An operand that compares equal to the interned spelling must not
    # borrow its rendering, whichever spelling was interned first.  The
    # source registers keep these shapes out of every other test.
    src = (17, 18) if plain_first else (19, 20)

    def plain():
        return Instruction(Opcode.LDR_EDE, dst=(1,), src=src, edk_def=0,
                           size=8)

    def odd():
        return Instruction(Opcode.LDR_EDE, dst=(True,), src=src, edk_def=0,
                           size=8.0)

    first, second = (plain(), odd()) if plain_first else (odd(), plain())
    assert first._shape is second._shape
    for inst in (first, second):
        assert repr(inst) == dataclass_repr(inst)
    assert "dst=(1,)" in repr(plain()) and "dst=(True,)" in repr(odd())
    assert "size=8," in repr(plain()) and "size=8.0," in repr(odd())
    # An EDK spelled False is a shape of its own (operands are
    # identity-checked), so its template renders it as given.
    false_key = Instruction(Opcode.LDR_EDE, dst=(1,), src=src,
                            edk_def=False)
    assert false_key._shape is not first._shape
    assert "edk_def=False," in repr(false_key)


def test_edk_given_as_true_is_rejected():
    # True equals key 1, but an EDK must be an int: nothing to render.
    with pytest.raises(ValueError, match="EDK must be an int"):
        Instruction(Opcode.STR_EDE, src=(1, 2), edk_def=True)
