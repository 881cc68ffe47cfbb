"""Unit tests for the service job model: IDs, specs, digests."""

import dataclasses

import pytest

from repro.harness import DEFAULT_PARAMS, ResultCache, run_one, result_cache
from repro.harness.configs import CONFIG_BY_NAME
from repro.harness.digest import run_digest
from repro.service import jobs
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

    @pytest.mark.parametrize("spec", [
        JobSpec(kind="simulate", workload="mpsc", config="WB",
                ops_per_txn=4, txns=3, seed=7, cores=2),
        JobSpec(kind="analyze", workload="swap", config="dmb_st+cons"),
        JobSpec(kind="optimize", workload="update", config="IQ",
                conservative=True, budget=12),
    ], ids=["simulate", "analyze", "optimize"])
    def test_to_dict_is_asdict_in_field_order(self, spec):
        """The submit body and the status JSON are built from this dict,
        so its keys and their order are part of the wire format."""
        rendered = spec.to_dict()
        assert list(rendered.items()) == \
            list(dataclasses.asdict(spec).items())
        assert JobSpec.from_dict(rendered) == spec

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


#: Parameters that differ from the defaults in one nested field.
SLOW_NVM = dataclasses.replace(
    DEFAULT_PARAMS,
    nvm=dataclasses.replace(DEFAULT_PARAMS.nvm, write_cycles=3000))

#: Job IDs under the fingerprint ``"f" * 64``, as rendered before the
#: canonical JSON of params was memoized: ``(spec, DEFAULT_PARAMS id,
#: SLOW_NVM id)``.
PINNED_IDS = [
    (JobSpec(kind="simulate", workload="update", config="B",
             ops_per_txn=10, txns=5, seed=2021),
     "sim-cbf26eb49e20df25f0518a5c650f1867d04a8b02911dc9346fcda4a4dae46dc3",
     "sim-4e9188e1c99335afb624a2ceea22e2a902f108c7b5562bd1958e98fc2c7386c6"),
    (JobSpec(kind="simulate", workload="mpsc", config="WB",
             ops_per_txn=4, txns=3, seed=7, cores=2),
     "sim-549281792ccfe7ec67e487c23cd2e05d3ab1a2c9c911b98ad31c3e738a90d9e6",
     "sim-c4d098b1beeb52bf83088c31faa459156548c57cca18f8bc55108f2924452e87"),
    (JobSpec(kind="analyze", workload="swap", config="ede+cons"),
     "ana-2e739984bed995ff572cfef25e83e85d0e7698f145901d34c09743dd61b31ee5",
     "ana-2e739984bed995ff572cfef25e83e85d0e7698f145901d34c09743dd61b31ee5"),
    (JobSpec(kind="optimize", workload="update", config="IQ",
             conservative=True, budget=5),
     "opt-70313d8e4a1a41b6a25bc491ed9803d7c497b6df69677e494a992bce701f6210",
     "opt-f1b4be28fdb24bc86de74d06e260fd0c40ae978a0aef56693e0cdfa3c82b1387"),
]


class TestKeysAreStable:
    """Canonical JSON is memoized by object identity, and a flat one
    (``Scale``) by value too; keys must be byte-identical with the memo
    cold, warm and turned off."""

    @pytest.fixture(autouse=True)
    def fixed_fingerprint(self, monkeypatch):
        monkeypatch.setattr(result_cache, "_SOURCE_FINGERPRINT", "f" * 64)
        monkeypatch.setattr(result_cache, "_RENDERED",
                            type(result_cache._RENDERED)())

    @pytest.mark.parametrize("memo", ["cold-then-warm", "off"])
    def test_job_ids_are_pinned(self, monkeypatch, memo):
        if memo == "off":
            monkeypatch.setattr(result_cache, "_RENDERED_MAX", 0)
        for _ in range(2):
            for spec, default_id, slow_id in PINNED_IDS:
                assert job_id_for(spec) == default_id
                assert job_id_for(spec, SLOW_NVM) == slow_id
        if memo == "off":
            assert not result_cache._RENDERED

    def test_equal_values_keep_their_own_rendering(self):
        """``Scale(10, 5)`` and ``Scale(10.0, 5)`` are equal and hash
        equal but render different keys; a memo keyed by value would
        hand one the other's key."""
        config = CONFIG_BY_NAME["B"]
        ints, floats = Scale(10, 5), Scale(10.0, 5)
        assert ints == floats and hash(ints) == hash(floats)
        for _ in range(2):
            assert ResultCache.key("update", config, ints, DEFAULT_PARAMS) \
                == PINNED_IDS[0][1][len("sim-"):]
            assert ResultCache.key("update", config, floats, DEFAULT_PARAMS) \
                == "f84337daad6282f1c3da722fd4bc96c51a97b78ba46b1b7132808587c9620422"

    @pytest.mark.parametrize("order", [(1, True, 1.0), (True, 1.0, 1),
                                       (1.0, 1, True)])
    def test_value_memo_tells_bool_int_and_float_apart(self, monkeypatch,
                                                      order):
        """A fresh ``Scale`` is served from the value memo, and ``True``,
        ``1`` and ``1.0`` (equal, hash equal) keep their own keys."""
        def key(ops):
            return ResultCache.key("update", CONFIG_BY_NAME["B"],
                                   Scale(ops, 5), DEFAULT_PARAMS)

        monkeypatch.setattr(result_cache, "_RENDERED_MAX", 0)
        expected = {type(ops): key(ops) for ops in order}
        assert len(set(expected.values())) == 3
        monkeypatch.setattr(result_cache, "_RENDERED_MAX", 64)
        for _ in range(2):
            for ops in order:
                assert key(ops) == expected[type(ops)]
        for ops in (1, True):
            assert result_cache._value_key(Scale(ops, 5)) in \
                result_cache._RENDERED
        assert result_cache._value_key(Scale(1.0, 5)) is None
        assert result_cache._value_key(DEFAULT_PARAMS) is None

    def test_memo_is_bounded(self):
        for ops in range(1, 3 * result_cache._RENDERED_MAX):
            ResultCache.key("update", CONFIG_BY_NAME["B"], Scale(ops, 5),
                            DEFAULT_PARAMS)
        assert len(result_cache._RENDERED) == result_cache._RENDERED_MAX
        # Hit on every call, so the params are never evicted.
        assert id(DEFAULT_PARAMS) in result_cache._RENDERED


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

    def test_job_digest_is_computed_once(self, runs, monkeypatch):
        job = Job(SPEC, job_id_for(SPEC))
        job.result = runs["B"]
        job.transition(JobState.DONE)
        assert job.digest == run_digest(runs["B"])

        def no_second_digest(result):
            raise AssertionError("digest recomputed")

        monkeypatch.setattr(jobs, "run_digest", no_second_digest)
        assert job.digest == run_digest(runs["B"])
