"""Table III safety claims: B/IQ/WB maintain a crash-consistent persist
order; SU is unsafe by specification; U violates observably.  Includes
full crash-injection recovery replay on the kernels."""

from benchmarks.common import bench_scale, full_matrix, print_header
from repro.consistency.crash_sim import CrashInjector
from repro.harness.experiments import APPLICATIONS, safety_matrix


def test_safety_matrix(benchmark):
    result = benchmark.pedantic(
        lambda: safety_matrix(bench_scale(), APPLICATIONS,
                              results=full_matrix()),
        rounds=1, iterations=1)

    print_header("Crash-consistency verdicts (obligation checking)")
    for app in APPLICATIONS:
        print("  %s" % app)
        for name, verdict in result.verdicts[app].items():
            print("    %-3s %s" % (name, verdict))

    assert result.safe_configs_clean()
    for app in APPLICATIONS:
        assert result.verdicts[app]["SU"].startswith("unsafe by spec")
    assert any(result.violation_counts[app]["U"] > 0 for app in APPLICATIONS)


def test_crash_recovery_replay(benchmark):
    """Replay undo recovery at every crash point on the kernels."""
    def run():
        matrix = full_matrix()
        outcome = {}
        for app in ("update", "swap"):
            outcome[app] = {}
            for name in ("B", "IQ", "WB", "U"):
                run_result = matrix[app][name]
                injector = CrashInjector(run_result.built,
                                         run_result.persist_log)
                reports = injector.validate_many()
                bad = sum(1 for r in reports if not r.consistent)
                outcome[app][name] = (len(reports), bad)
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Crash-injection recovery replay (every crash point)")
    for app, per_config in outcome.items():
        for name, (points, bad) in per_config.items():
            print("  %-7s %-3s %4d crash points, %4d unrecoverable"
                  % (app, name, points, bad))

    for app, per_config in outcome.items():
        for name in ("B", "IQ", "WB"):
            assert per_config[name][1] == 0, (app, name)
        assert per_config["U"][1] > 0, app
