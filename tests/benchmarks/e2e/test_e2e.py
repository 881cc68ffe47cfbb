"""The end-to-end benchmark at smoke sizes: every workload runs clean
against its goldens, prints exactly the metrics BENCHMARK.json names, and
its traced run covers its wall time with spans."""

import copy
import json
import time

import pytest

from benchmarks.e2e import benchmark, golden, workloads
from benchmarks.e2e.trace import Probe, SpanRecorder, installed

BENCHMARK_JSON = benchmark.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def smoke_corpus():
    return golden.Corpus.load(workloads.SMOKE.name)


def _smoke(workload, trace, corpus):
    return benchmark.run(workload, 2021, 0.01, trace,
                         sizes=workloads.SMOKE, corpus=corpus)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_is_clean(workload, trace, smoke_corpus):
    result = _smoke(workload, trace, smoke_corpus)
    assert result.failed == 0 and result.correct, result.notes
    assert result.attempted >= 1
    expected = benchmark.PER_LAYER if trace else benchmark.END_TO_END
    assert set(result.metrics) == set(expected)
    if trace:
        assert result.metrics["trace.coverage"] >= benchmark.MIN_COVERAGE
    else:
        assert all(value > 0 for value in result.metrics.values())


def test_layers_that_must_stay_silent(smoke_corpus):
    multicore = _smoke("multicore-contended", True, smoke_corpus).metrics
    assert multicore["pipeline.run_calls"] == 0
    assert multicore["multicore.simulate_calls"] > 0
    matrix = _smoke("paper-matrix", True, smoke_corpus).metrics
    assert matrix["multicore.simulate_calls"] == 0
    assert matrix["pipeline.run_calls"] > 0
    assert matrix["sim.fig9_wb_geomean"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == benchmark.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == benchmark.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_golden_counts_as_failure(smoke_corpus):
    digests = copy.deepcopy(smoke_corpus.digests)
    cells = digests["paper-matrix"]["2021"]
    cells["btree/WB"] = "0" * 16
    result = _smoke("paper-matrix", False, golden.Corpus(digests))
    assert result.failed == 1 and not result.correct
    assert any("btree/WB" in note for note in result.notes)


def test_inherited_knob_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FUSION", "0")
    assert benchmark.main(["--workload", "paper-matrix"]) == 2
    assert "REPRO_FUSION" in capsys.readouterr().err


def test_self_times_and_coverage():
    recorder = SpanRecorder()
    with recorder.span("bench.op", "a"):
        with recorder.span("harness.run_one"):
            time.sleep(0.02)
        time.sleep(0.01)
    self_times = recorder.self_times()
    inclusive = recorder.totals()["bench.op"][1]
    assert sum(self_times.values()) == pytest.approx(inclusive)
    assert self_times["harness.run_one"] >= 0.02
    assert recorder.root_seconds() == pytest.approx(inclusive)
    assert recorder.spans[1].op == "a"

    class Quiet(workloads.Workload):
        name = "quiet"
        spans = frozenset({"harness.run_one", "pipeline.run"})

    problems = benchmark._trace_problems(recorder, Quiet(),
                                         {"trace.coverage": 0.5})
    assert any("pipeline.run never fired" in p for p in problems)
    assert any("cover 0.500" in p for p in problems)


def test_host_clock_scales_to_reference_speed(monkeypatch):
    reference = benchmark.REFERENCE_S
    readings = iter([2 * reference, 2 * reference, reference])
    monkeypatch.setattr(benchmark.HostClock, "_read",
                        staticmethod(lambda: next(readings)))
    clock = benchmark.HostClock()
    assert clock.lap() == pytest.approx(0.5)  # the host ran at half speed
    assert clock.lap() == pytest.approx(2 / 3)  # and sped up meanwhile

    timing = benchmark.PassTiming()
    timing.add(2.0, [1.5], 0.5)
    timing.add(1.0, [0.8], 1.0)
    assert (timing.wall, timing.latencies) == (3.0, [1.5, 0.8])
    assert timing.scaled_wall == pytest.approx(2.0)
    assert timing.scaled_latencies == pytest.approx([0.75, 0.8])


def test_renamed_entry_point_fails_install():
    probe = Probe("gone.call", "benchmarks.e2e.trace", "no_such_function")
    with pytest.raises(AttributeError, match="gone.call"):
        with installed(SpanRecorder(), [probe]):
            pass
