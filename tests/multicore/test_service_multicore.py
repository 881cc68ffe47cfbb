"""Service and cache integration: core counts flow with zero special-casing."""

from types import SimpleNamespace

import pytest

from repro.harness.configs import DEFAULT_PARAMS, configuration
from repro.harness.result_cache import ResultCache
from repro.service.jobs import JobSpec, job_id_for, result_cache_key
from repro.workloads.base import Scale
from tests.golden.identity import run_identity


class TestJobSpecCores:
    def test_round_trips_through_json_dict(self):
        spec = JobSpec(kind="simulate", workload="mpsc", config="WB",
                       cores=2)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.scale.cores == 2

    def test_default_is_single_core(self):
        spec = JobSpec(kind="simulate", workload="update", config="B")
        assert spec.cores == 1
        assert spec.scale.cores == 1

    def test_validate_rejects_single_core_workload_at_two_cores(self):
        spec = JobSpec(kind="simulate", workload="update", config="B",
                       cores=2)
        with pytest.raises(ValueError, match="single-core only"):
            spec.validate()

    def test_validate_rejects_cores_on_analyze_jobs(self):
        spec = JobSpec(kind="analyze", workload="hazard", config="ede",
                       cores=2)
        with pytest.raises(ValueError, match="simulate jobs only"):
            spec.validate()

    def test_from_dict_rejects_non_integer_cores(self):
        spec = JobSpec(kind="simulate", workload="hazard", config="IQ")
        data = spec.to_dict()
        data["cores"] = "2"
        with pytest.raises(ValueError, match="cores must be an integer"):
            JobSpec.from_dict(data)

    def test_core_count_changes_job_id(self):
        one = JobSpec(kind="simulate", workload="hazard", config="IQ")
        two = JobSpec(kind="simulate", workload="hazard", config="IQ",
                      cores=2)
        assert job_id_for(one) != job_id_for(two)


class TestCacheKeys:
    def test_service_key_matches_result_cache_key(self):
        spec = JobSpec(kind="simulate", workload="counter", config="WB",
                       cores=2)
        store = ResultCache()
        assert result_cache_key(spec) == store.key(
            spec.workload, spec.configuration, spec.scale, DEFAULT_PARAMS)

    @staticmethod
    def _keys(scale):
        """The result and job cache keys of one ``mpsc`` build."""
        config = configuration("IQ")
        # JobSpec has no interleave field; result_cache_key reads only
        # the spec's workload, configuration and scale.
        return (ResultCache().key("mpsc", config, scale, DEFAULT_PARAMS),
                result_cache_key(SimpleNamespace(
                    workload="mpsc", configuration=config, scale=scale)))

    def _assert_all_keys_differ(self, scales):
        keys = [self._keys(scale) for scale in scales]
        for column in zip(*keys):
            assert len(set(column)) == len(scales)
        for result_key, job_key in keys:
            assert job_key == result_key

    def test_core_count_changes_cache_keys(self):
        self._assert_all_keys_differ(
            [Scale(ops_per_txn=5, txns=3, cores=1),
             Scale(ops_per_txn=5, txns=3, cores=2)])

    def test_interleave_knobs_change_cache_keys(self):
        # The schedule policy and the seed its weighted RNG derives from
        # are Scale fields, so each one changes both keys.
        self._assert_all_keys_differ(
            [Scale(ops_per_txn=5, txns=3, cores=2),
             Scale(ops_per_txn=5, txns=3, cores=2, interleave="weighted"),
             Scale(ops_per_txn=5, txns=3, cores=2, interleave="weighted",
                   seed=17)])

    def test_cache_keys_ignore_the_environment(self, monkeypatch):
        # The retired multi-core knobs once fed an environment signature
        # into every key; no key reads the environment any more.
        scale = Scale(ops_per_txn=5, txns=3, cores=2)
        before = self._keys(scale)
        monkeypatch.setenv("REPRO_INTERLEAVE", "weighted")
        monkeypatch.setenv("REPRO_INTERLEAVE_SEED", "17")
        monkeypatch.setenv("REPRO_COHERENCE", "0")
        assert self._keys(scale) == before


class TestCachedMulticoreResults:
    def test_result_cache_round_trip(self, tmp_path):
        from repro.harness.runner import run_one

        scale = Scale(ops_per_txn=5, txns=3, cores=2)
        config = configuration("WB")
        store = ResultCache(tmp_path)
        result = run_one("counter", config, scale)
        key = store.key("counter", config, scale, DEFAULT_PARAMS)
        store.store(key, result)
        loaded = store.load(key)
        assert loaded is not None
        assert run_identity(loaded) == run_identity(result)
        assert len(loaded.core_stats) == 2
