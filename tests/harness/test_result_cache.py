"""Persistent result cache: identity on hit, invalidation on source change."""

import os
import pickle

import pytest

from repro.harness import CONFIGURATIONS, configuration, run_one
from repro.harness.configs import DEFAULT_PARAMS
from repro.harness.parallel import run_matrix_parallel
from repro.harness.result_cache import (
    ResultCache,
    default_cache_dir,
    resolve_store,
    source_fingerprint,
    unframe_payload,
)
from repro.workloads import Scale, TEST_SCALE

CONFIG = configuration("WB")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeys:
    def test_key_is_stable(self, cache):
        first = cache.key("btree", CONFIG, TEST_SCALE, DEFAULT_PARAMS)
        second = cache.key("btree", CONFIG, TEST_SCALE, DEFAULT_PARAMS)
        assert first == second

    def test_key_covers_every_input(self, cache):
        base = cache.key("btree", CONFIG, TEST_SCALE, DEFAULT_PARAMS)
        assert cache.key("update", CONFIG, TEST_SCALE, DEFAULT_PARAMS) != base
        assert cache.key("btree", configuration("IQ"), TEST_SCALE,
                         DEFAULT_PARAMS) != base
        assert cache.key("btree", CONFIG, Scale(7, 2), DEFAULT_PARAMS) != base

    def test_key_covers_source_fingerprint(self, cache):
        clean = cache.key("btree", CONFIG, TEST_SCALE, DEFAULT_PARAMS,
                          fingerprint=source_fingerprint())
        dirty = cache.key("btree", CONFIG, TEST_SCALE, DEFAULT_PARAMS,
                          fingerprint="0" * 64)
        assert clean != dirty

    def test_fingerprint_is_memoized_and_hex(self):
        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 64
        int(source_fingerprint(), 16)


class TestStoreAndLoad:
    def test_hit_returns_identical_results(self, cache):
        result = run_one("update", CONFIG, TEST_SCALE)
        key = cache.key("update", CONFIG, TEST_SCALE, DEFAULT_PARAMS)
        assert cache.load(key) is None  # cold
        cache.store(key, result)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.cycles == result.cycles
        assert loaded.ipc == result.ipc
        assert loaded.consistency.verdict == result.consistency.verdict
        assert loaded.stats.issue_histogram == result.stats.issue_histogram
        assert loaded.built.final_memory == result.built.final_memory
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        key = "deadbeef" * 8
        cache.root.mkdir(parents=True)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.load(key) is None
        assert not path.exists()

    def test_store_is_atomic(self, cache):
        key = "ab" * 32
        cache.store(key, {"payload": 1})
        leftovers = [p for p in cache.root.iterdir()
                     if p.suffix not in (".pkl",)]
        assert leftovers == []
        with open(cache._path(key), "rb") as handle:
            assert pickle.loads(unframe_payload(handle.read())) == {
                "payload": 1}

    def test_clear(self, cache):
        cache.store("aa" * 32, 1)
        cache.store("bb" * 32, 2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestEngineIntegration:
    def test_cold_then_warm_matrix(self, tmp_path):
        configs = list(CONFIGURATIONS)
        cold = run_matrix_parallel(["update"], configs, TEST_SCALE,
                                   max_workers=1, cache=True,
                                   cache_dir=tmp_path)
        store = ResultCache(tmp_path)
        assert len(store) == len(configs)
        warm = run_matrix_parallel(["update"], configs, TEST_SCALE,
                                   max_workers=1, cache=True,
                                   cache_dir=tmp_path)
        for name in cold["update"]:
            assert cold["update"][name].cycles == warm["update"][name].cycles
            assert (cold["update"][name].consistency.verdict
                    == warm["update"][name].consistency.verdict)

    def test_dirty_fingerprint_forces_resimulation(self, tmp_path, monkeypatch):
        configs = [CONFIG]
        run_matrix_parallel(["update"], configs, TEST_SCALE, max_workers=1,
                            cache=True, cache_dir=tmp_path)
        store = ResultCache(tmp_path)
        assert len(store) == 1

        # Simulate a source edit: the fingerprint changes, so the old entry
        # no longer matches and the run simulates (and stores) again.
        monkeypatch.setattr("repro.harness.result_cache._SOURCE_FINGERPRINT",
                            "f" * 64)
        run_matrix_parallel(["update"], configs, TEST_SCALE, max_workers=1,
                            cache=True, cache_dir=tmp_path)
        assert len(store) == 2

    def test_cache_opt_out_env(self, monkeypatch, tmp_path):
        def stored(env_value):
            monkeypatch.setenv("REPRO_RESULT_CACHE", env_value)
            root = tmp_path / ("cache-%s" % (env_value or "unset"))
            run_matrix_parallel(["update"], [CONFIG], TEST_SCALE,
                                max_workers=1, cache_dir=root)
            return len(ResultCache(root))

        assert stored("0") == 0
        assert stored("1") == 1
        assert stored("") == 1

    def test_resolve_store(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert resolve_store(cache_dir=tmp_path).root == tmp_path
        assert resolve_store(cache=False, cache_dir=tmp_path) is None
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert resolve_store(cache_dir=tmp_path) is None
        assert resolve_store(cache=True, cache_dir=tmp_path).root == tmp_path
        monkeypatch.setenv("REPRO_RESULT_CACHE", "yes")
        with pytest.raises(ValueError, match="REPRO_RESULT_CACHE"):
            resolve_store()

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert str(default_cache_dir()) == os.path.join(".benchmarks", "cache")

    def test_cache_dir_env_moves_store(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert resolve_store().root == tmp_path / "elsewhere"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert resolve_store().root == default_cache_dir()
