"""The fault plan itself: determinism, once-only firing, serialization."""

import json
import os

import pytest

from repro.chaos import (
    ChaosError,
    FaultPlan,
    FaultSpec,
    KILL_EXIT_CODE,
    chaos_active,
    chaos_point,
    in_worker_process,
    pick_victim,
    summarize_state,
)


def plan_with(tmp_path, *faults, seed=0):
    return FaultPlan(faults=list(faults), state_dir=str(tmp_path / "state"),
                     seed=seed)


class TestFaultSpec:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            FaultSpec(point="worker", action="explode")

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(point="worker", action="raise", times=0)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        plan = plan_with(
            tmp_path,
            FaultSpec(point="worker", action="kill", match="update/*"),
            FaultSpec(point="store", action="bitflip", match="report:*",
                      times=2),
            seed=7)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_install_roundtrips_through_env(self, tmp_path):
        plan = plan_with(tmp_path,
                         FaultSpec(point="run_one", action="raise"))
        env = {}
        with plan.installed(env):
            assert FaultPlan.from_env(env) == plan
            assert os.path.isdir(plan.state_dir)
        assert "REPRO_CHAOS" not in env

    def test_from_env_accepts_a_file_path(self, tmp_path):
        plan = plan_with(tmp_path, FaultSpec(point="build", action="raise"))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_env({"REPRO_CHAOS": str(path)}) == plan

    def test_from_env_absent(self):
        assert FaultPlan.from_env({}) is None


class TestFiring:
    def test_once_only_across_calls(self, tmp_path):
        plan = plan_with(tmp_path, FaultSpec(point="worker", action="raise"))
        plan.install({})
        with pytest.raises(ChaosError, match=r"worker\[update/fence\]"):
            plan.fire("worker", "update/fence")
        plan.fire("worker", "update/fence")  # budget spent: silent
        plan.fire("worker", "swap/fence")

    def test_times_budget(self, tmp_path):
        plan = plan_with(tmp_path,
                         FaultSpec(point="worker", action="raise", times=2))
        plan.install({})
        for _ in range(2):
            with pytest.raises(ChaosError):
                plan.fire("worker", "x")
        plan.fire("worker", "x")  # third hit: nothing left

    def test_match_filters_labels(self, tmp_path):
        plan = plan_with(tmp_path, FaultSpec(point="worker", action="raise",
                                             match="update/*"))
        plan.install({})
        plan.fire("worker", "swap/fence")  # no match, no fire
        with pytest.raises(ChaosError):
            plan.fire("worker", "update/fence")

    def test_point_must_match(self, tmp_path):
        plan = plan_with(tmp_path, FaultSpec(point="store", action="raise"))
        plan.install({})
        plan.fire("worker", "anything")  # different point

    def test_kill_demoted_in_main_process(self, tmp_path):
        # If this were a real os._exit the test run would vanish.
        assert not in_worker_process()
        plan = plan_with(tmp_path, FaultSpec(point="worker", action="kill"))
        plan.install({})
        with pytest.raises(ChaosError, match="demoted"):
            plan.fire("worker", "update/fence")

    def test_file_action_skipped_without_path(self, tmp_path):
        plan = plan_with(tmp_path,
                         FaultSpec(point="store", action="truncate"))
        plan.install({})
        plan.fire("store", "result:abc", path=None)  # no file, no claim
        assert summarize_state(plan) == {"store[*]:truncate": 0}

    def test_truncate_damages_the_file(self, tmp_path):
        plan = plan_with(tmp_path,
                         FaultSpec(point="store", action="truncate"))
        plan.install({})
        victim = tmp_path / "entry.pkl"
        victim.write_bytes(b"x" * 1000)
        plan.fire("store", "result:abc", path=victim)
        assert 0 < len(victim.read_bytes()) < 1000

    def test_bitflip_is_deterministic_in_the_seed(self, tmp_path):
        original = bytes(range(256)) * 4
        damaged = []
        for attempt in range(2):
            plan = FaultPlan(
                faults=[FaultSpec(point="store", action="bitflip")],
                state_dir=str(tmp_path / ("s%d" % attempt)), seed=99)
            plan.install({})
            victim = tmp_path / ("f%d" % attempt)
            victim.write_bytes(original)
            plan.fire("store", "result:k", path=victim)
            damaged.append(victim.read_bytes())
        assert damaged[0] == damaged[1] != original


class TestChaosPoint:
    def test_noop_without_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert not chaos_active()
        chaos_point("worker", "update/fence")  # must be silent

    def test_fires_installed_plan(self, tmp_path, monkeypatch):
        plan = plan_with(tmp_path, FaultSpec(point="worker", action="raise"))
        monkeypatch.setenv("REPRO_CHAOS", plan.to_json())
        os.makedirs(plan.state_dir, exist_ok=True)
        assert chaos_active()
        with pytest.raises(ChaosError):
            chaos_point("worker", "update/fence")
        chaos_point("worker", "update/fence")  # spent

    def test_summarize_state_counts_firings(self, tmp_path):
        plan = plan_with(tmp_path,
                         FaultSpec(point="worker", action="raise", times=3))
        plan.install({})
        for _ in range(2):
            with pytest.raises(ChaosError):
                plan.fire("worker", "x")
        assert summarize_state(plan) == {"worker[*]:raise": 2}


class TestHelpers:
    def test_pick_victim_deterministic_and_order_free(self):
        options = ["swap/ede", "update/fence", "btree/none"]
        first = pick_victim(options, seed=5)
        second = pick_victim(list(reversed(options)), seed=5)
        assert first == second in options
        with pytest.raises(ValueError):
            pick_victim([], seed=5)

    def test_kill_exit_code_is_distinctive(self):
        assert KILL_EXIT_CODE == 77

    def test_plan_json_is_stable(self, tmp_path):
        plan = plan_with(tmp_path, FaultSpec(point="worker", action="raise"))
        assert json.loads(plan.to_json())["seed"] == 0
