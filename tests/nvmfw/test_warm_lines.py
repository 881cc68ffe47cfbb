"""``BuiltWorkload.warm_lines``: computed once per built workload and line
size, and the same sorted list as computing it from the final memory.

A built workload's memory never changes, so every ``run_one`` of it, every
core of the multi-core driver and every autotune variant (a
``dataclasses.replace`` copy that keeps ``final_memory``) reuses the
lines.
"""

import dataclasses

import pytest

import repro.workloads  # noqa: F401  (registers workloads)
from repro.harness.configs import configuration
from repro.harness.runner import run_one
from repro.workloads import Scale
from repro.workloads import base as workload_base

TEST_SCALE = Scale(ops_per_txn=4, txns=3)


def reference_lines(built, line_size):
    return sorted({word & ~(line_size - 1) for word in built.final_memory})


class CountingMemo(dict):
    """A ``_warm_lines`` memo that counts how often it is filled."""

    fills = 0

    def __setitem__(self, key, value):
        self.fills += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("workload", workload_base.workload_names())
def test_lines_match_the_final_memory(workload):
    built = workload_base.build(workload, "ede", TEST_SCALE)
    for line_size in (64, 32, 128, 64):
        lines = built.warm_lines(line_size)
        assert lines == reference_lines(built, line_size)
        assert built.warm_lines(line_size) is lines


def test_computed_once_across_runs_and_variants():
    built = workload_base.build("update", "ede", TEST_SCALE)
    memo = built._warm_lines = CountingMemo()
    lines = built.warm_lines()
    for name in ("IQ", "WB", "IQ"):
        run_one("update", configuration(name), TEST_SCALE, built=built)
    variant = dataclasses.replace(built, trace=list(built.trace))
    run_one("update", configuration("WB"), TEST_SCALE, built=variant)
    assert memo.fills == 1
    assert variant.warm_lines() is lines
    assert lines == reference_lines(built, 64)


def test_computed_once_for_every_core():
    scale = dataclasses.replace(TEST_SCALE, cores=2)
    built = workload_base.build("mpsc", "ede", scale)
    memo = built._warm_lines = CountingMemo()
    for name in ("WB", "IQ"):
        run_one("mpsc", configuration(name), scale, built=built)
    assert memo.fills == 1


def test_a_copy_with_other_memory_computes_its_own():
    built = workload_base.build("update", "ede", TEST_SCALE)
    lines = built.warm_lines()
    memory = dict(built.final_memory)
    memory[max(memory) + 4096] = 1
    other = dataclasses.replace(built, final_memory=memory)
    assert other.warm_lines() == reference_lines(other, 64) != lines
    assert built.warm_lines() == lines
