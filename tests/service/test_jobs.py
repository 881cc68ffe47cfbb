"""Unit tests for the service job model: IDs, specs, digests."""

import pytest

from repro.harness import DEFAULT_PARAMS, ResultCache, run_one
from repro.harness.configs import CONFIG_BY_NAME
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    job_id_for,
    result_cache_key,
)
from repro.workloads import Scale
from tests.golden.identity import run_identity

SPEC = JobSpec(kind="simulate", workload="update", config="B",
               ops_per_txn=5, txns=2)


class TestJobSpec:
    def test_scale_roundtrip(self):
        assert SPEC.scale == Scale(ops_per_txn=5, txns=2, seed=2021)

    def test_configuration_resolves(self):
        assert SPEC.configuration is CONFIG_BY_NAME["B"]

    def test_analyze_has_no_configuration(self):
        spec = JobSpec(kind="analyze", workload="update", config="ede")
        with pytest.raises(ValueError, match="fence mode"):
            spec.configuration

    def test_dict_roundtrip(self):
        assert JobSpec.from_dict(SPEC.to_dict()) == SPEC

    @pytest.mark.parametrize("mutation,message", [
        ({"kind": "frobnicate"}, "unknown job kind"),
        ({"workload": "nope"}, "unknown workload"),
        ({"config": "XX"}, "unknown configuration"),
        ({"ops_per_txn": 0}, "positive"),
        ({"txns": -1}, "positive"),
    ])
    def test_validation_is_loud(self, mutation, message):
        data = dict(SPEC.to_dict())
        data.update(mutation)
        with pytest.raises(ValueError, match=message):
            JobSpec.from_dict(data)

    def test_analyze_mode_validated(self):
        data = dict(SPEC.to_dict())
        data.update(kind="analyze", config="B")  # B is not a fence mode
        with pytest.raises(ValueError, match="unknown fence mode"):
            JobSpec.from_dict(data)

    def test_unknown_and_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_dict({**SPEC.to_dict(), "frob": 1})
        with pytest.raises(ValueError, match="missing field"):
            JobSpec.from_dict({"kind": "simulate"})
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict(["not", "a", "dict"])

    def test_non_integer_scale_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            JobSpec.from_dict({**SPEC.to_dict(), "txns": "2"})


class TestJobIds:
    def test_simulate_id_reuses_result_cache_key(self, tmp_path):
        """The job ID *is* the cache address: same digest the parallel
        engine stores results under."""
        store = ResultCache(tmp_path)
        expected = store.key(SPEC.workload, SPEC.configuration, SPEC.scale,
                             DEFAULT_PARAMS)
        assert result_cache_key(SPEC) == expected
        assert job_id_for(SPEC) == "sim-" + expected

    def test_identical_specs_identical_ids(self):
        twin = JobSpec(kind="simulate", workload="update", config="B",
                       ops_per_txn=5, txns=2)
        assert job_id_for(twin) == job_id_for(SPEC)

    @pytest.mark.parametrize("mutation", [
        {"config": "WB"}, {"workload": "swap"}, {"ops_per_txn": 6},
        {"txns": 3}, {"seed": 7}, {"kind": "analyze", "config": "ede"},
    ])
    def test_different_specs_different_ids(self, mutation):
        other = JobSpec.from_dict({**SPEC.to_dict(), **mutation})
        assert job_id_for(other) != job_id_for(SPEC)


class TestJobLifecycle:
    def test_transitions_and_events(self):
        job = Job(SPEC, job_id_for(SPEC), client="alice")
        assert job.state == JobState.QUEUED
        assert job.latency_s is None
        job.transition(JobState.RUNNING)
        job.transition(JobState.DONE)
        assert job.state == JobState.DONE
        assert job.latency_s is not None
        assert [e["event"] for e in job.events] == ["running", "done"]
        assert job.done_event.is_set()

    def test_failure_records_error(self):
        job = Job(SPEC, job_id_for(SPEC))
        job.transition(JobState.FAILED, error="boom")
        assert job.error == "boom"
        assert job.to_status()["error"] == "boom"

    def test_status_shape(self):
        job = Job(SPEC, job_id_for(SPEC), client="alice", priority=3)
        status = job.to_status()
        assert status["id"] == job.id
        assert status["spec"] == SPEC.to_dict()
        assert status["client"] == "alice"
        assert status["priority"] == 3
        assert status["coalesced"] == 0


class TestResultDigest:
    @pytest.fixture(scope="class")
    def runs(self):
        scale = Scale(ops_per_txn=5, txns=2)
        return {
            name: run_one("update", CONFIG_BY_NAME[name], scale)
            for name in ("B", "WB")
        }

    def test_deterministic_across_reruns(self, runs):
        again = run_one("update", CONFIG_BY_NAME["B"],
                        Scale(ops_per_txn=5, txns=2))
        assert run_identity(runs["B"]) == run_identity(again)

    def test_distinguishes_configurations(self, runs):
        assert run_identity(runs["B"]) != run_identity(runs["WB"])
