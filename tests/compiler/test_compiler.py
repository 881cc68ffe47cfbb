"""Tests for the Section IX-A compiler support: IR, key allocation,
lowering and the soundness of spilling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import (
    IrError,
    IrFunction,
    IrOp,
    allocate_keys,
    lower,
    verify_lowering,
)
from repro.isa import instructions as ops
from repro.isa.opcodes import Opcode

NVM = 2 << 30


def cvap(index, defines=None, uses=()):
    return IrOp(ops.dc_cvap(0, addr=NVM + 64 * index),
                defines=defines, uses=tuple(uses))


def store(index, defines=None, uses=()):
    return IrOp(ops.store(1, 2, addr=NVM + (1 << 20) + 64 * index),
                defines=defines, uses=tuple(uses))


def load(index, uses=()):
    return IrOp(ops.ldr(3, 2, addr=NVM + (2 << 20) + 64 * index),
                uses=tuple(uses))


class TestIrValidation:
    def test_use_before_def_rejected(self):
        with pytest.raises(IrError):
            IrFunction([store(0, uses=(7,))])

    def test_ssa_redefinition_rejected(self):
        with pytest.raises(IrError):
            IrFunction([cvap(0, defines=1), cvap(1, defines=1)])

    def test_three_uses_rejected(self):
        with pytest.raises(IrError):
            IrOp(ops.store(1, 2, addr=NVM), uses=(1, 2, 3))

    def test_non_memory_op_cannot_carry_tokens(self):
        with pytest.raises(IrError):
            IrOp(ops.add(1, 2, imm=3), defines=0)

    def test_pre_keyed_instructions_rejected(self):
        with pytest.raises(IrError):
            IrOp(ops.dc_cvap_ede(0, edk_def=1, edk_use=0, addr=NVM))

    def test_live_ranges(self):
        fn = IrFunction([cvap(0, defines=0), store(0), store(1, uses=(0,))])
        assert fn.live_ranges()[0] == (0, 2)

    def test_dependence_pairs(self):
        fn = IrFunction([cvap(0, defines=0), store(0, uses=(0,)),
                         store(1, uses=(0,))])
        assert fn.dependence_pairs() == [(0, 1), (0, 2)]


class TestAllocation:
    def test_disjoint_ranges_share_keys(self):
        fn = IrFunction([
            cvap(0, defines=0), store(0, uses=(0,)),
            cvap(1, defines=1), store(1, uses=(1,)),
        ])
        assignment = allocate_keys(fn, num_keys=1)
        assert assignment.spill_waits == 0
        assert assignment.token_key[0] == assignment.token_key[1] == 1

    def test_overlapping_ranges_get_distinct_keys(self):
        fn = IrFunction([
            cvap(0, defines=0), cvap(1, defines=1),
            store(0, uses=(0,)), store(1, uses=(1,)),
        ])
        assignment = allocate_keys(fn)
        assert assignment.token_key[0] != assignment.token_key[1]

    def test_no_overlapping_live_tokens_share_a_key(self):
        fn = IrFunction(
            [cvap(t, defines=t) for t in range(10)]
            + [store(t, uses=(t,)) for t in range(10)])
        assignment = allocate_keys(fn)
        ranges = fn.live_ranges()
        for a in range(10):
            for b in range(a + 1, 10):
                sa, ea = ranges[a]
                sb, eb = ranges[b]
                if sa <= eb and sb <= ea:  # overlap
                    assert (assignment.token_key[a]
                            != assignment.token_key[b])

    def test_spill_inserts_wait_key(self):
        fn = IrFunction(
            [cvap(t, defines=t) for t in range(4)]
            + [store(t, uses=(t,)) for t in range(4)])
        assignment = allocate_keys(fn, num_keys=2)
        assert assignment.spill_waits > 0
        waits = [op for op in assignment.ops
                 if op.inst.opcode is Opcode.WAIT_KEY]
        assert len(waits) == assignment.spill_waits

    def test_load_consumers_force_fence_spill(self):
        fn = IrFunction(
            [store(t, defines=t) for t in range(3)]
            + [load(t, uses=(t,)) for t in range(3)])
        assignment = allocate_keys(fn, num_keys=1)
        assert assignment.spill_fences > 0
        assert any(op.inst.opcode is Opcode.DMB_SY for op in assignment.ops)

    def test_invalid_key_count(self):
        fn = IrFunction([cvap(0, defines=0)])
        with pytest.raises(ValueError):
            allocate_keys(fn, num_keys=0)
        with pytest.raises(ValueError):
            allocate_keys(fn, num_keys=16)


class TestLowering:
    def test_single_dependence_uses_variants(self):
        fn = IrFunction([cvap(0, defines=0), store(0, uses=(0,))])
        lowered = lower(fn)
        assert lowered.instructions[0].opcode is Opcode.DC_CVAP_EDE
        assert lowered.instructions[1].opcode is Opcode.STR_EDE
        assert (lowered.instructions[1].edk_use
                == lowered.instructions[0].edk_def)
        assert verify_lowering(fn, lowered) == []

    def test_two_uses_emit_join(self):
        fn = IrFunction([
            cvap(0, defines=0), cvap(1, defines=1),
            store(0, uses=(0, 1)),
        ])
        lowered = lower(fn)
        joins = [i for i in lowered.instructions if i.opcode is Opcode.JOIN]
        assert len(joins) == 1
        assert verify_lowering(fn, lowered) == []

    def test_independent_ops_carry_no_keys(self):
        fn = IrFunction([cvap(0), store(0), load(0)])
        lowered = lower(fn)
        assert all(not i.is_ede for i in lowered.instructions)

    def test_spilled_lowering_verifies(self):
        fn = IrFunction(
            [cvap(t, defines=t) for t in range(8)]
            + [store(t, uses=(t,)) for t in range(8)])
        lowered = lower(fn, num_keys=2)
        assert verify_lowering(fn, lowered) == []

    def test_fence_spilled_lowering_verifies(self):
        fn = IrFunction(
            [store(t, defines=t) for t in range(4)]
            + [load(t, uses=(t,)) for t in range(4)])
        lowered = lower(fn, num_keys=1)
        assert verify_lowering(fn, lowered) == []


@st.composite
def random_ir(draw):
    """Random SSA IR with mixed producer/consumer kinds."""
    length = draw(st.integers(min_value=1, max_value=30))
    ops_list = []
    defined = []
    next_token = 0
    for index in range(length):
        kind = draw(st.sampled_from(
            ["producer", "consumer", "both", "join", "load", "plain"]))
        uses = ()
        defines = None
        if kind in ("consumer", "both", "load", "join") and defined:
            first = draw(st.sampled_from(defined))
            if kind == "join" and len(defined) > 1:
                second = draw(st.sampled_from(defined))
                uses = (first, second) if second != first else (first,)
            else:
                uses = (first,)
        if kind in ("producer", "both", "join"):
            defines = next_token
            defined.append(next_token)
            next_token += 1
        if kind == "load":
            ops_list.append(load(index, uses=uses))
        elif draw(st.booleans()):
            ops_list.append(cvap(index, defines=defines, uses=uses))
        else:
            ops_list.append(store(index, defines=defines, uses=uses))
    return IrFunction(ops_list)


class TestLoweringProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_ir(), st.integers(min_value=1, max_value=15))
    def test_every_dependence_survives_lowering(self, fn, num_keys):
        lowered = lower(fn, num_keys=num_keys)
        assert verify_lowering(fn, lowered) == []

    @settings(max_examples=40, deadline=None)
    @given(random_ir())
    def test_full_key_set_never_spills_small_functions(self, fn):
        if len(fn) > 15:
            return
        lowered = lower(fn, num_keys=15)
        assert lowered.assignment.spill_waits == 0
        assert lowered.assignment.spill_fences == 0

    @settings(max_examples=30, deadline=None)
    @given(random_ir(), st.integers(min_value=1, max_value=15))
    def test_lowered_code_passes_static_verifier(self, fn, num_keys):
        # Every consumer the lowering emits reads a live producer.  Dead
        # keys and overwrites are expected: the IR may define dependences
        # nothing uses, and a small key set forces reuse.
        from repro.analysis import ERROR, analyze_key_states
        lowered = lower(fn, num_keys=num_keys)
        findings = [f for f in analyze_key_states(lowered.instructions)
                    if f.severity == ERROR or f.check == "dangling-consumer"]
        assert findings == []


class TestLoweredCodeOnPipeline:
    def test_ordering_enforced_end_to_end(self):
        """Lowered code run on the timing model honours the IR dependences."""
        from repro.core.policies import WB_POLICY
        from repro.isa.instructions import halt
        from repro.memory import CacheHierarchy, MemoryController
        from repro.pipeline import OutOfOrderCore

        fn = IrFunction([
            cvap(0, defines=0),
            store(0, uses=(0,)),
            cvap(1, defines=1),
            store(1, uses=(1,)),
        ])
        lowered = lower(fn, num_keys=2)
        trace = lowered.instructions + [halt()]
        controller = MemoryController()
        hierarchy = CacheHierarchy(controller)
        lines = {i.addr & ~63 for i in lowered.instructions if i.addr}
        for line in lines:
            for cache in (hierarchy.l3, hierarchy.l2, hierarchy.l1d):
                cache.insert(line)
        core = OutOfOrderCore(trace, hierarchy, WB_POLICY)
        # Store-class instructions complete when their write-buffer push
        # finishes, at cycle max(done, push_cycle) — observe that at the
        # memory boundary (the run loop binds these methods at entry, so
        # wrapping them before run() intercepts every push).
        completions = {}
        real_clean = hierarchy.clean_to_pop
        real_commit = hierarchy.store_commit

        def clean(addr, cycle, tag=None, inst_seq=None):
            done = real_clean(addr, cycle, tag=tag, inst_seq=inst_seq)
            completions[addr] = max(done, cycle)
            return done

        def commit(addr, cycle):
            done = real_commit(addr, cycle)
            completions[addr] = max(done, cycle)
            return done

        hierarchy.clean_to_pop = clean
        hierarchy.store_commit = commit
        core.run()
        cvap_addr = [inst.addr for inst in lowered.instructions
                     if inst.opcode in (Opcode.DC_CVAP, Opcode.DC_CVAP_EDE)]
        store_addr = [inst.addr for inst in lowered.instructions
                      if inst.opcode in (Opcode.STR, Opcode.STR_EDE)]
        assert completions[store_addr[0]] >= completions[cvap_addr[0]]
        assert completions[store_addr[1]] >= completions[cvap_addr[1]]
