"""The ``optimize`` service job: spec validation, content addressing,
single-flight, on-disk report caching, and HTTP end to end.

The design invariant: an optimize job's ID *is* its ReportCache address
(``opt-`` + :func:`repro.service.jobs.optimize_cache_key`), so the
scheduler — and, unchanged, the cluster coordinator — routes,
single-flights and cache-serves optimize jobs with exactly the machinery
built for simulations.
"""

import asyncio

import pytest

from repro.harness.result_cache import ReportCache
from repro.service.jobs import (
    JobSpec,
    JobState,
    job_id_for,
    optimize_cache_key,
)
from repro.service.scheduler import Scheduler
from repro.service.server import ThreadedServer
from repro.service.client import ServiceClient

SPEC = JobSpec(kind="optimize", workload="update", config="B",
               ops_per_txn=5, txns=2, conservative=True, budget=8)


class TestSpecValidation:
    def test_roundtrip(self):
        assert JobSpec.from_dict(SPEC.to_dict()) == SPEC

    def test_configuration_resolves(self):
        assert SPEC.configuration.name == "B"

    @pytest.mark.parametrize("mutation,message", [
        ({"config": "dsb"}, "unknown configuration"),
        ({"kind": "simulate"}, "optimize jobs only"),
        ({"kind": "analyze", "config": "ede"}, "optimize jobs only"),
        ({"budget": -1}, "budget"),
        ({"budget": "8"}, "integer"),
        ({"conservative": 1}, "boolean"),
    ])
    def test_rejections_are_loud(self, mutation, message):
        with pytest.raises(ValueError, match=message):
            JobSpec.from_dict({**SPEC.to_dict(), **mutation})

    def test_plain_jobs_may_leave_knobs_at_defaults(self):
        data = {**SPEC.to_dict(), "kind": "simulate",
                "conservative": False, "budget": 0}
        assert JobSpec.from_dict(data).kind == "simulate"


class TestContentAddressing:
    def test_id_is_the_report_cache_address(self):
        assert job_id_for(SPEC) == "opt-" + optimize_cache_key(SPEC)

    def test_identical_specs_identical_ids(self):
        twin = JobSpec(kind="optimize", workload="update", config="B",
                       ops_per_txn=5, txns=2, conservative=True, budget=8)
        assert job_id_for(twin) == job_id_for(SPEC)

    @pytest.mark.parametrize("mutation", [
        {"config": "IQ"}, {"workload": "swap"}, {"conservative": False},
        {"budget": 9}, {"txns": 3},
    ])
    def test_every_knob_is_part_of_the_identity(self, mutation):
        other = JobSpec.from_dict({**SPEC.to_dict(), **mutation})
        assert job_id_for(other) != job_id_for(SPEC)

    def test_default_budget_is_one_job(self):
        from repro.analysis.autotune import DEFAULT_BUDGET

        implicit = JobSpec.from_dict({**SPEC.to_dict(), "budget": 0})
        explicit = JobSpec.from_dict({**SPEC.to_dict(),
                                      "budget": DEFAULT_BUDGET})
        assert DEFAULT_BUDGET == 64
        assert job_id_for(implicit) == job_id_for(explicit)

    def test_optimize_never_collides_with_simulate(self):
        sim = JobSpec(kind="simulate", workload="update", config="B",
                      ops_per_txn=5, txns=2)
        opt = JobSpec(kind="optimize", workload="update", config="B",
                      ops_per_txn=5, txns=2)
        assert job_id_for(sim) != job_id_for(opt)


def _run_scheduler(coro):
    async def body():
        return await coro()

    return asyncio.run(body())


class TestSchedulerIntegration:
    def test_created_then_completed_then_cached(self, tmp_path):
        """One spec, three lifetimes: executed once, coalesced-completed
        in-process, and served from the on-disk ReportCache by a fresh
        scheduler that never ran anything."""
        cache_dir = tmp_path / "cache"

        async def first():
            scheduler = Scheduler(max_workers=1, cache=True,
                                  cache_dir=cache_dir)
            scheduler.start()
            try:
                job, disposition = scheduler.submit(SPEC)
                assert disposition == "created"
                await asyncio.wait_for(job.done_event.wait(), timeout=300)
                assert job.state == JobState.DONE
                assert isinstance(job.result, dict)
                assert job.result["status"] in ("optimized",
                                                "proven-minimal")
                _, again = scheduler.submit(SPEC)
                assert again == "completed"
                return job.result
            finally:
                await scheduler.stop()

        result = _run_scheduler(first)
        assert result["validation"]["digest_match"] is True

        # The report landed in the shared cache directory...
        store = ReportCache(cache_dir)
        assert store.load(optimize_cache_key(SPEC)) == result

        # ...so a brand-new scheduler serves it without executing.
        async def second():
            scheduler = Scheduler(max_workers=1, cache=True,
                                  cache_dir=cache_dir)
            scheduler.start()
            try:
                job, disposition = scheduler.submit(SPEC)
                assert disposition == "cached"
                assert job.from_cache
                assert job.result == result
            finally:
                await scheduler.stop()

        _run_scheduler(second)

    def test_inflight_duplicates_coalesce(self, tmp_path):
        async def body():
            scheduler = Scheduler(max_workers=1, cache=True,
                                  cache_dir=tmp_path / "cache")
            scheduler.pause()  # keep the job queued
            scheduler.start()
            try:
                job, first = scheduler.submit(SPEC)
                twin, second = scheduler.submit(SPEC)
                assert (first, second) == ("created", "coalesced")
                assert twin is job
                assert job.coalesced == 1
            finally:
                await scheduler.stop()

        _run_scheduler(body)


class TestHttpEndToEnd:
    def test_optimize_over_http_matches_direct_call(self, tmp_path):
        from repro.analysis.autotune import autotune_workload
        from repro.workloads import Scale

        with ThreadedServer(max_workers=1,
                            cache_dir=tmp_path / "cache") as server:
            client = ServiceClient(port=server.port, client_id="pytest")
            status = client.submit_retrying(SPEC)
            final = client.wait(status["id"])
            assert final["state"] == "done"
            report = client.result(status["id"])["report"]

        direct = autotune_workload(
            "update", "B", scale=Scale(ops_per_txn=5, txns=2),
            conservative=True, budget=8).to_dict()
        assert report == direct
        assert report["status"] == "optimized"
        assert report["ordering"]["removed"] > 0
        assert report["validation"]["digest_match"] is True
