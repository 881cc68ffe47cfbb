"""The incremental static oracle against a from-scratch reference.

:func:`reference_state` is the oracle as the autotuner first ran it: for
each candidate, materialize the program, build its CFG, run the
key-state pass (its checks and the ordering queries) and the persist
prover over every obligation.  :class:`repro.analysis.oracle.StaticOracle` must agree
with it — ranks, severe-finding counts (in first-finding order) and
verdict counts — after every staged drop, every commit and rollback, and
for every key fold, on seeded random straight-line EDE programs that mix
fences, ``WAIT_KEY``/``WAIT_ALL_KEYS``/``JOIN``, key reuse and tagged
persists.  The hand-written cases pin the places a window-local
recompute can go wrong: orphan draining, the producer-overwrite
warning-to-info downgrade (which reads every drain in the program), a
consumer past the obligation's interval, and EDM pressure at 15 live
keys.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.analysis.autotune import derive_search_obligations
from repro.analysis.cfg import build_cfg
from repro.analysis.findings import ERROR, WARNING
from repro.analysis.keystate import KeyStateAnalysis
from repro.analysis.oracle import (
    VERDICT_RANK,
    StaticOracle,
    StaticState,
    obligation_key,
)
from repro.analysis.persist import PersistProver, derive_obligations, summarize
from repro.consistency.obligations import Obligation
from repro.isa import instructions as ops
from repro.isa.instructions import Instruction
from repro.nvmfw import codegen
from repro.workloads.base import TEST_SCALE, build

# --- the reference oracle -----------------------------------------------------


def reference_state(
    instructions: Sequence[Instruction], obligations: Sequence[Obligation]
) -> StaticState:
    """Every analysis from scratch over one materialized program."""
    analysis = KeyStateAnalysis(instructions, build_cfg(instructions))
    prover = PersistProver(instructions, analysis)
    verdicts = prover.prove_all(obligations)
    ranks = {
        obligation_key(v.obligation): VERDICT_RANK[v.verdict] for v in verdicts
    }
    severe: Dict[Tuple[str, str], int] = {}
    for finding in analysis.findings:
        if finding.severity in (ERROR, WARNING) and finding.check != "dead-key":
            key = (finding.severity, finding.check)
            severe[key] = severe.get(key, 0) + 1
    return StaticState(ranks=ranks, severe=severe,
                       verdict_counts=summarize(verdicts))


def reference_judge(candidate: StaticState, baseline: StaticState):
    """The pruning rule over whole states."""
    for key, base_rank in baseline.ranks.items():
        if candidate.ranks.get(key, 0) < base_rank:
            return False, "obligation %s %s -> %s would regress" % key
    for key, count in candidate.severe.items():
        if count > baseline.severe.get(key, 0):
            return False, "would introduce %s finding(s): %s" % key
    return True, "no obligation regresses; no new warning-or-worse finding"


def assert_same(oracle: StaticOracle, expected: StaticState, context: str):
    actual = oracle.state()
    assert actual.ranks == expected.ranks, context
    assert list(actual.severe.items()) == list(expected.severe.items()), context
    assert actual.verdict_counts == expected.verdict_counts, context


# --- random straight-line programs --------------------------------------------


def random_program(rng: random.Random, length: int, keys: int) -> List[Instruction]:
    """A straight-line EDE program: tagged persists, key chains, fences."""
    program: List[Instruction] = []
    counter = {"log": 0, "store": 0, "data": 0, "init": 0, "commit": 0,
               "publish": 0}

    def key():
        return rng.randint(1, keys)

    def maybe_key():
        return key() if rng.random() < 0.6 else 0

    def tag():
        kind = rng.choice(("log", "log", "store", "data", "init", "commit",
                           "publish"))
        number = counter[kind]
        if rng.random() < 0.8:
            counter[kind] += 1
        return "%s:%d" % (kind, number)

    for _ in range(length):
        roll = rng.random()
        if roll < 0.25:
            program.append(ops.dc_cvap_ede(2, maybe_key(), maybe_key(),
                                           comment=tag()))
        elif roll < 0.35:
            program.append(ops.store_ede(1, 2, maybe_key(), maybe_key(),
                                         comment=tag()))
        elif roll < 0.42:
            program.append(ops.dc_cvap(2, comment=tag()))
        elif roll < 0.50:
            program.append(ops.store_ede(1, 2, key(), maybe_key()))
        elif roll < 0.55:
            program.append(ops.join(maybe_key(), maybe_key(), maybe_key()))
        elif roll < 0.67:
            program.append(ops.wait_key(key()))
        elif roll < 0.73:
            program.append(ops.wait_all_keys())
        elif roll < 0.83:
            program.append(ops.dsb_sy())
        elif roll < 0.87:
            program.append(ops.dmb_sy())
        elif roll < 0.91:
            program.append(ops.dmb_st())
        else:
            program.append(ops.mov_imm(3, rng.randint(0, 9)))
    program.append(ops.halt())
    return program


def random_obligations(rng: random.Random,
                       program: Sequence[Instruction]) -> List[Obligation]:
    obligations = derive_obligations(program) + derive_search_obligations(program)
    tags = [inst.comment for inst in program if inst.comment is not None]
    tags.append("missing:0")
    for _ in range(len(tags)):
        first, second = rng.choice(tags), rng.choice(tags)
        obligations.append(Obligation("random", first, second, -1, -1))
    rng.shuffle(obligations)
    return obligations


def random_fold(rng: random.Random, program: Sequence[Instruction]) -> Dict[int, int]:
    keys = sorted({k for inst in program for k in (inst.edk_def, inst.edk_use)
                   if k})
    width = rng.choice((1, 2, 4, 8))
    return {k: (i % width) + 1 for i, k in enumerate(keys)}


def walk(program, obligations, rng, steps):
    """Stage random drops against the reference; commit most, roll back some.

    Judgements are compared only while every committed drop passed the
    pruning rule, the contract the autotuner keeps.
    """
    oracle = StaticOracle(program, obligations)
    baseline = reference_state(program, obligations)
    assert_same(oracle, baseline, "baseline")
    sites = codegen.ordering_sites(program)
    rng.shuffle(sites)
    dropped: List[int] = []
    judged_safe = True
    for site in sites[:steps]:
        context = "drop %d after %s" % (site, dropped)
        oracle.drop(site)
        candidate = reference_state(
            codegen.Rewriter(program).apply(drop=dropped + [site]), obligations)
        assert_same(oracle, candidate, context)
        if judged_safe:
            assert oracle.judge(baseline) == reference_judge(candidate, baseline), \
                context
        if rng.random() < 0.75:
            oracle.commit()
            dropped.append(site)
            judged_safe = judged_safe and reference_judge(candidate, baseline)[0]
        else:
            oracle.rollback()
            assert_same(oracle, reference_state(
                codegen.Rewriter(program).apply(drop=dropped), obligations),
                "rollback of " + context)
        if rng.random() < 0.2:
            fold_map = random_fold(rng, program)
            fold = StaticOracle(program, obligations, dropped=dropped,
                                key_map=fold_map)
            expected = reference_state(
                codegen.Rewriter(program).apply(drop=dropped, key_map=fold_map),
                obligations)
            assert_same(fold, expected, "fold %s after %s" % (fold_map, dropped))
            if judged_safe:
                assert fold.judge(baseline) == reference_judge(expected, baseline)


@pytest.mark.parametrize("seed", range(40))
def test_random_programs_match_reference(seed):
    rng = random.Random(seed)
    program = random_program(rng, length=rng.randint(20, 70),
                             keys=rng.choice((2, 3, 4, 6)))
    walk(program, random_obligations(rng, program), rng, steps=25)


@pytest.mark.parametrize("seed", range(8))
def test_many_live_keys_match_reference(seed):
    """All 15 keys in play: EDM pressure comes and goes with the waits."""
    rng = random.Random(1000 + seed)
    program = random_program(rng, length=90, keys=15)
    walk(program, random_obligations(rng, program), rng, steps=30)


@pytest.mark.parametrize("workload,mode", [
    ("update", "ede+cons"), ("update", "dsb+cons"), ("swap", "ede"),
    ("publication", "dmb_st+cons"),
])
def test_workload_traces_match_reference(workload, mode):
    built = build(workload, mode, TEST_SCALE)
    program = built.trace
    obligations = list(built.obligations) + derive_search_obligations(program)
    walk(program, obligations, random.Random(workload + mode), steps=12)


# --- hand-written windows -----------------------------------------------------


def _check_every_drop(program, obligations):
    """Each single drop, staged from the unedited program, matches."""
    oracle = StaticOracle(program, obligations)
    baseline = reference_state(program, obligations)
    assert_same(oracle, baseline, "baseline")
    for site in codegen.ordering_sites(program):
        oracle.drop(site)
        candidate = reference_state(
            codegen.Rewriter(program).apply(drop=[site]), obligations)
        assert_same(oracle, candidate, "drop %d" % site)
        assert oracle.judge(baseline) == reference_judge(candidate, baseline)
        oracle.rollback()
    return oracle, baseline


def test_far_drain_downgrades_an_early_overwrite():
    """The overwrite at 2 is downgraded to info because the wait at 6
    drains its orphan; dropping that wait re-arms the warning outside the
    drop's window."""
    program = [
        ops.dc_cvap_ede(2, 1, 0, comment="log:0"),
        ops.store(3, 1),
        ops.dc_cvap_ede(2, 1, 0, comment="data:0"),  # overwrites 0 pending
        ops.mov_imm(3, 1),
        ops.mov_imm(3, 2),
        ops.dsb_sy(),
        ops.wait_key(1),  # consumes 2, drains the orphaned 0
        ops.dc_cvap(2, comment="commit:0"),
        ops.halt(),
    ]
    oracle, baseline = _check_every_drop(program, derive_obligations(program))
    assert (WARNING, "producer-overwrite") not in baseline.severe
    oracle.drop(6)
    assert oracle.judge(baseline) == (
        False, "would introduce warning finding(s): producer-overwrite")


def test_orphans_drain_at_the_next_wait_on_their_key():
    program = [
        ops.store_ede(1, 2, 2, 0, comment="log:0"),
        ops.store_ede(1, 2, 2, 0, comment="log:1"),  # orphans log:0
        ops.wait_key(2),  # drains it
        ops.store_ede(1, 2, 3, 0, comment="data:0"),
        ops.wait_key(2),
        ops.wait_all_keys(),
        ops.dc_cvap(2, comment="commit:0"),
        ops.halt(),
    ]
    _check_every_drop(program, derive_obligations(program))


def test_only_consumer_after_the_interval():
    """log:0 -> commit:0 stays indeterminate while a wait past commit:0
    consumes key 4; without it the verdict falls to violated."""
    program = [
        ops.dc_cvap_ede(2, 4, 0, comment="log:0"),
        ops.dc_cvap(2, comment="commit:0"),
        ops.mov_imm(3, 0),
        ops.wait_key(4),
        ops.halt(),
    ]
    obligations = derive_obligations(program)
    oracle, baseline = _check_every_drop(program, obligations)
    assert baseline.verdict_counts["indeterminate"] == 1
    oracle.drop(3)
    assert oracle.verdict_counts()["violated"] == 1
    assert oracle.judge(baseline) == (
        False, "obligation persist-before-commit log:0 -> commit:0 would regress")


def test_edm_pressure_at_fifteen_live_keys():
    program = [ops.store_ede(1, 2, key, 0, comment="data:%d" % key)
               for key in range(1, 15)]
    program += [ops.wait_all_keys(),
                ops.store_ede(1, 2, 15, 0, comment="data:15"),
                ops.wait_key(15), ops.dsb_sy(),
                ops.dc_cvap(2, comment="commit:0"), ops.halt()]
    oracle, baseline = _check_every_drop(program, derive_obligations(program))
    assert (WARNING, "edm-pressure") not in baseline.severe
    oracle.drop(14)  # the WAIT_ALL_KEYS that retires 14 live keys
    # Key 15's producer and the WAIT_KEY that re-produces it each find
    # all 15 entries live.
    assert oracle.state().severe[(WARNING, "edm-pressure")] == 2


def test_rejection_names_the_class_that_appears_first():
    """Dropping the second WAIT_ALL_KEYS re-arms an overwrite at 17 and adds
    pressure at 32; pressure already appears at 14, so it is named."""
    def producer(key):
        return ops.store_ede(1, 2, key, 0)

    program = [producer(key) for key in range(1, 16)]  # pressure at 14
    program += [ops.wait_all_keys(), producer(1), producer(1),
                ops.wait_all_keys()]
    program += [producer(key) for key in range(2, 16)]
    program.append(ops.halt())
    oracle, baseline = _check_every_drop(program, [])
    oracle.drop(18)
    assert list(oracle.state().severe) == [
        (WARNING, "edm-pressure"), (WARNING, "producer-overwrite")]
    assert oracle.judge(baseline) == (
        False, "would introduce warning finding(s): edm-pressure")


def test_rejects_code_that_is_not_straight_line():
    with pytest.raises(ValueError, match="straight-line"):
        StaticOracle([ops.halt(), ops.dsb_sy(), ops.halt()], [])
    with pytest.raises(ValueError, match="straight-line"):
        StaticOracle([ops.branch("x"), ops.halt()], [])


def test_staged_drop_must_be_settled():
    program = [ops.dsb_sy(), ops.dsb_sy(), ops.halt()]
    oracle = StaticOracle(program, [])
    oracle.drop(0)
    with pytest.raises(RuntimeError, match="staged"):
        oracle.drop(1)
