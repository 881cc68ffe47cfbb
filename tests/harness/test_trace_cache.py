"""Trace cache: identity on hit, invalidation, corruption, env knobs."""

import os
import zlib

import pytest

from repro.harness import CONFIGURATIONS, configuration, run_matrix, run_one
from repro.harness.configs import DEFAULT_PARAMS
from repro.harness.parallel import run_matrix_parallel
from repro.harness.profiling import maybe_profile
from repro.harness.result_cache import (
    default_cache_dir,
    source_fingerprint,
    unframe_payload,
)
from repro.harness.trace_cache import (
    TraceCache,
    default_trace_cache_dir,
    load_or_build,
    resolve_caches,
)
from repro.workloads import TEST_SCALE, Scale, base as workload_base

CONFIG = configuration("WB")

#: Table II applications (kept literal so a registry change is noticed).
SIX_APPS = ("update", "swap", "btree", "ctree", "rbtree", "rtree")


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "traces")


class TestKeys:
    def test_key_is_stable(self, cache):
        first = cache.key("btree", "ede", TEST_SCALE, DEFAULT_PARAMS)
        second = cache.key("btree", "ede", TEST_SCALE, DEFAULT_PARAMS)
        assert first == second

    def test_key_covers_every_input(self, cache):
        base = cache.key("btree", "ede", TEST_SCALE, DEFAULT_PARAMS)
        assert cache.key("update", "ede", TEST_SCALE, DEFAULT_PARAMS) != base
        assert cache.key("btree", "dsb", TEST_SCALE, DEFAULT_PARAMS) != base
        assert cache.key("btree", "ede", Scale(7, 2), DEFAULT_PARAMS) != base

    def test_key_covers_source_fingerprint(self, cache):
        clean = cache.key("btree", "ede", TEST_SCALE, DEFAULT_PARAMS,
                          fingerprint=source_fingerprint())
        dirty = cache.key("btree", "ede", TEST_SCALE, DEFAULT_PARAMS,
                          fingerprint="0" * 64)
        assert clean != dirty


class TestHitIdentity:
    @pytest.mark.parametrize("app", SIX_APPS)
    def test_cached_trace_is_bit_identical(self, cache, app):
        fresh = workload_base.build(app, CONFIG.fence_mode, TEST_SCALE)
        cached_cold = workload_base.build(app, CONFIG.fence_mode, TEST_SCALE,
                                          cache=cache)     # miss: build+store
        cached_warm = workload_base.build(app, CONFIG.fence_mode, TEST_SCALE,
                                          cache=cache)     # hit: load
        assert cache.misses == 1 and cache.hits == 1
        for loaded in (cached_cold, cached_warm):
            assert loaded.trace == fresh.trace
            assert loaded.obligations == fresh.obligations
            assert loaded.line_snapshots == fresh.line_snapshots
            assert loaded.final_memory == fresh.final_memory
            assert loaded.baseline_memory == fresh.baseline_memory

    def test_cached_trace_reproduces_pipeline_stats(self, cache):
        direct = run_one("update", CONFIG, TEST_SCALE)
        warmed = workload_base.build("update", CONFIG.fence_mode, TEST_SCALE,
                                     cache=cache)
        via_cache = run_one("update", CONFIG, TEST_SCALE,
                            built=load_or_build("update", CONFIG.fence_mode,
                                                TEST_SCALE, store=cache))
        assert cache.hits == 1
        assert via_cache.cycles == direct.cycles
        assert via_cache.stats.retired == direct.stats.retired
        assert via_cache.stats.issue_histogram == direct.stats.issue_histogram
        assert via_cache.consistency.verdict == direct.consistency.verdict
        assert warmed.trace == direct.built.trace

    def test_entries_are_compressed(self, cache):
        workload_base.build("update", "ede", TEST_SCALE, cache=cache)
        (path,) = list(cache.root.glob("*.trace"))
        body = unframe_payload(path.read_bytes())
        assert zlib.decompress(body)  # valid zlib stream under the frame
        assert len(body) < len(zlib.decompress(body))


class TestInvalidation:
    def test_dirty_fingerprint_forces_rebuild(self, cache, monkeypatch):
        workload_base.build("update", "ede", TEST_SCALE, cache=cache)
        assert len(cache) == 1
        monkeypatch.setattr("repro.harness.result_cache._SOURCE_FINGERPRINT",
                            "f" * 64)
        workload_base.build("update", "ede", TEST_SCALE, cache=cache)
        assert len(cache) == 2

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        key = cache.key("update", "ede", TEST_SCALE, DEFAULT_PARAMS)
        cache.root.mkdir(parents=True)
        path = cache._path(key)
        path.write_bytes(b"not a zlib pickle")
        assert cache.load(key) is None
        assert not path.exists()
        # The build transparently recreates the discarded entry.
        built = workload_base.build("update", "ede", TEST_SCALE, cache=cache)
        assert built.trace == workload_base.build("update", "ede",
                                                  TEST_SCALE).trace
        assert path.exists()

    def test_truncated_entry_is_discarded(self, cache):
        workload_base.build("update", "ede", TEST_SCALE, cache=cache)
        (path,) = list(cache.root.glob("*.trace"))
        path.write_bytes(path.read_bytes()[:16])
        assert cache.load(path.stem) is None
        assert not path.exists()


class TestZeroRebuildMatrix:
    def test_warm_matrix_builds_nothing(self, tmp_path):
        configs = list(CONFIGURATIONS)
        serial = run_matrix(["update"], configs, TEST_SCALE)
        cold = run_matrix_parallel(["update"], configs, TEST_SCALE,
                                   max_workers=1, cache=False,
                                   trace_cache=True, cache_dir=tmp_path)
        before = workload_base.BUILD_COUNT
        warm = run_matrix_parallel(["update"], configs, TEST_SCALE,
                                   max_workers=1, cache=False,
                                   trace_cache=True, cache_dir=tmp_path)
        assert workload_base.BUILD_COUNT == before  # zero interpretation
        for name in serial["update"]:
            assert (serial["update"][name].cycles
                    == cold["update"][name].cycles
                    == warm["update"][name].cycles)
            assert (serial["update"][name].stats.issue_histogram
                    == warm["update"][name].stats.issue_histogram)
            assert (serial["update"][name].consistency.verdict
                    == warm["update"][name].consistency.verdict)

    def test_traces_live_under_cache_dir(self, tmp_path):
        run_matrix_parallel(["update"], [CONFIG], TEST_SCALE, max_workers=1,
                            cache=False, trace_cache=True, cache_dir=tmp_path)
        assert len(list((tmp_path / "traces").glob("*.trace"))) == 1

    def test_explicit_no_cache_disables_trace_cache(self, tmp_path):
        run_matrix_parallel(["update"], [CONFIG], TEST_SCALE, max_workers=1,
                            cache=False, cache_dir=tmp_path)
        assert not (tmp_path / "traces").exists()


class TestEnvKnobs:
    def test_trace_cache_opt_out(self, monkeypatch):
        def trace_dir(**kwargs):
            return resolve_caches(**kwargs)[1]

        default = str(default_trace_cache_dir())
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert trace_dir() is None
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        assert trace_dir() == default
        monkeypatch.delenv("REPRO_TRACE_CACHE")
        assert trace_dir() == default
        assert trace_dir(trace_cache=False) is None
        assert trace_dir(cache=False) is None
        assert trace_dir(cache=False, trace_cache=True) == default

    def test_result_cache_opt_out_keeps_traces(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        store, trace_dir = resolve_caches(cache_dir=tmp_path)
        assert store is None
        assert trace_dir == str(tmp_path / "traces")
        monkeypatch.delenv("REPRO_RESULT_CACHE")
        store, _ = resolve_caches(cache_dir=tmp_path)
        assert store.root == tmp_path

    def test_trace_cache_rejects_malformed(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "yes")
        with pytest.raises(ValueError, match="REPRO_TRACE_CACHE"):
            resolve_caches()

    def test_cache_dir_env_moves_traces(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_trace_cache_dir() == tmp_path / "elsewhere" / "traces"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_trace_cache_dir() == default_cache_dir() / "traces"
        assert str(default_cache_dir()) == os.path.join(".benchmarks", "cache")

    def test_profile_knob_validation(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path))

        def profiled(label):
            with maybe_profile(label, "build"):
                pass
            return (tmp_path / ("%s.build.prof" % label)).exists()

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not profiled("unset")
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not profiled("off")
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profiled("on")
        monkeypatch.setenv("REPRO_PROFILE", "verbose")
        with pytest.raises(ValueError, match="REPRO_PROFILE"):
            profiled("junk")

    def test_profile_dumps_per_phase_stats(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "prof"))
        run_one("update", CONFIG, TEST_SCALE)
        names = sorted(p.name for p in (tmp_path / "prof").iterdir())
        assert names == [
            "update-WB.build.prof", "update-WB.build.txt",
            "update-WB.simulate.prof", "update-WB.simulate.txt",
        ]
