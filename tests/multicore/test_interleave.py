"""Deterministic interleaver: schedule shape and reproducibility."""

import pytest

from repro.multicore.interleave import run_interleaved, schedule_order


class TestScheduleOrder:
    def test_round_robin_strict_turns(self):
        order = schedule_order([3, 3], "round_robin", seed=1)
        assert order == [0, 1, 0, 1, 0, 1]

    def test_round_robin_skips_exhausted_streams(self):
        order = schedule_order([1, 3], "round_robin", seed=1)
        assert order == [0, 1, 1, 1]

    def test_weighted_is_seed_deterministic(self):
        a = schedule_order([5, 5, 5], "weighted", seed=42)
        b = schedule_order([5, 5, 5], "weighted", seed=42)
        assert a == b

    def test_weighted_seed_changes_schedule(self):
        a = schedule_order([20, 20], "weighted", seed=1)
        b = schedule_order([20, 20], "weighted", seed=2)
        assert a != b

    def test_every_unit_scheduled_exactly_once(self):
        for policy in ("round_robin", "weighted"):
            order = schedule_order([4, 7, 2], policy, seed=9)
            assert sorted(order) == [0] * 4 + [1] * 7 + [2] * 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            schedule_order([1, 1], "lottery", seed=1)


class TestRunInterleaved:
    def test_executes_in_schedule_order(self):
        log = []
        streams = [
            [lambda i=i: log.append((0, i)) for i in range(3)],
            [lambda i=i: log.append((1, i)) for i in range(3)],
        ]
        order = run_interleaved(streams, "round_robin", seed=0)
        assert order == [0, 1, 0, 1, 0, 1]
        assert log == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]

    def test_single_stream_runs_in_program_order(self):
        log = []
        run_interleaved([[lambda i=i: log.append(i) for i in range(5)]],
                        "weighted", seed=3)
        assert log == list(range(5))


class TestScalePolicy:
    def test_scale_rejects_unknown_policy(self):
        from repro.workloads.base import Scale

        with pytest.raises(ValueError, match="lottery") as info:
            Scale(interleave="lottery")
        assert "round_robin" in str(info.value)
        assert "weighted" in str(info.value)
