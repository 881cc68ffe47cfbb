"""The one-pass crash sweep against a per-point rebuild reference.

``CrashInjector.validate_many`` and ``validate_multicore`` walk the
persist log once and compare only the cells that can differ.  The
reference below is the straightforward algorithm: rebuild the image for
each point from the baseline, scan the whole log region for undo entries,
fold the committed write sets over the baseline with a plain loop, and
compare every tracked cell in address order.  Both must report the same
thing at every crash point, mismatch strings and their order included.
"""

import pytest

from repro.consistency.crash_sim import CrashInjector, validate_multicore
from repro.harness import configuration, run_one
from repro.nvmfw.layout import LOG_ENTRY_BYTES
from repro.workloads import Scale

SEEDS = (2021, 7)
CONFIGS = ("B", "SU", "IQ", "WB", "U")


# --- the per-point reference ---------------------------------------------------


def reference_recover(image, layout):
    """Undo recovery by a scan of every slot up to the highest written."""
    recovered = dict(image)
    epoch = recovered.get(layout.commit_record_addr, 0) & 7
    log_end = layout.log_base + layout.log_bytes
    used = [addr for addr in recovered if layout.log_base <= addr < log_end]
    highest = max(used) if used else layout.log_base
    undo = []
    for index in range(layout.log_capacity):
        slot = layout.log_base + index * LOG_ENTRY_BYTES
        if slot > highest:
            break
        tagged = recovered.get(slot, 0)
        if tagged == 0 or tagged & 7 != epoch:
            continue
        undo.append((tagged & ~7, recovered.get(slot + 8, 0)))
    for addr, old_value in reversed(undo):
        recovered[addr] = old_value
    return recovered


def reference_expected(cells, writes, baseline, committed):
    """The tracked cells' values after ``committed`` transactions."""
    expected = {}
    for addr in cells:
        value = baseline.get(addr, 0)
        for txn in range(committed):
            if addr in writes[txn]:
                value = writes[txn][addr]
        expected[addr] = value
    return expected


def reference_compare(recovered, baseline, cells, writes, committed, prefix,
                      label):
    expected = reference_expected(cells, writes, baseline, committed)
    mismatches = []
    for addr in sorted(expected):
        value = expected[addr]
        got = recovered.get(addr, baseline.get(addr, 0))
        if got != value:
            mismatches.append(
                "%saddr %#x: recovered %d, expected %d (%s %d)"
                % (prefix, addr, got, value, label, committed))
    return mismatches


def reference_single(injector, point):
    built = injector.built
    recovered = reference_recover(injector.image_at(point), built.layout)
    committed = recovered.get(built.layout.commit_record_addr, 0)
    return (point, committed,
            reference_compare(recovered, built.baseline_memory,
                              built.tracked_cells, built.committed_writes,
                              committed, "", "txn boundary"))


def reference_multicore(injector, point):
    built = injector.built
    recovered = injector.image_at(point)
    for layout in built.core_layouts:
        recovered = reference_recover(recovered, layout)
    mismatches = []
    committed_total = 0
    for core, layout in enumerate(built.core_layouts):
        raw = recovered.get(layout.commit_record_addr, 0)
        local = raw - built.core_txn_offsets[core] if raw else 0
        committed_total += max(local, 0)
        writes = built.core_committed_writes[core]
        if writes:
            mismatches += reference_compare(
                recovered, built.baseline_memory,
                built.core_tracked_cells[core], writes, local,
                "core %d " % core, "local txn boundary")
    return (point, committed_total, mismatches)


def as_tuples(reports):
    return [(r.crash_point, r.committed_txns, r.mismatches) for r in reports]


# --- sweep == reference ---------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload", ("update", "swap"))
def test_single_core_sweep_matches_reference(workload, config, seed):
    result = run_one(workload, configuration(config),
                     Scale(4, 3, seed=seed))
    injector = CrashInjector(result.built, result.persist_log)
    points = range(len(result.persist_log) + 1)
    assert as_tuples(injector.validate_many()) == [
        reference_single(injector, point) for point in points]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("config", ("B", "IQ", "WB", "U"))
@pytest.mark.parametrize("workload", ("mpsc", "counter"))
def test_multicore_sweep_matches_reference(workload, config, seed):
    result = run_one(workload, configuration(config),
                     Scale(4, 3, seed=seed, cores=2))
    injector = CrashInjector(result.built, result.persist_log)
    points = range(len(result.persist_log) + 1)
    assert as_tuples(validate_multicore(result.built, result.persist_log)) \
        == [reference_multicore(injector, point) for point in points]


def test_unsafe_sweep_has_mismatches_to_compare():
    """The differential tests above see real mismatch strings, not just
    clean sweeps on both sides."""
    result = run_one("update", configuration("U"), Scale(4, 3, seed=2021))
    injector = CrashInjector(result.built, result.persist_log)
    assert any(r.mismatches for r in injector.validate_many())


def test_recover_undo_matches_reference():
    result = run_one("swap", configuration("U"), Scale(4, 3, seed=7))
    injector = CrashInjector(result.built, result.persist_log)
    for point in range(len(result.persist_log) + 1):
        image = injector.image_at(point)
        assert injector.recover(image) == reference_recover(
            image, result.built.layout)


# --- point lists ------------------------------------------------------------------


@pytest.fixture(scope="module")
def update_u():
    result = run_one("update", configuration("U"), Scale(4, 3, seed=2021))
    return result, CrashInjector(result.built, result.persist_log)


def test_unsorted_duplicated_points_keep_caller_order(update_u):
    _result, injector = update_u
    points = [5, 0, 5, 2]
    reports = injector.validate_many(crash_points=points)
    assert [r.crash_point for r in reports] == points
    assert as_tuples(reports) == [reference_single(injector, point)
                                  for point in points]
    assert reports[0] is not reports[2]
    assert reports[0].mismatches is not reports[2].mismatches


def test_unsorted_duplicated_points_multicore():
    result = run_one("counter", configuration("WB"),
                     Scale(4, 3, seed=2021, cores=2))
    injector = CrashInjector(result.built, result.persist_log)
    points = [5, 0, 5, 2]
    reports = validate_multicore(result.built, result.persist_log,
                                 crash_points=points)
    assert as_tuples(reports) == [reference_multicore(injector, point)
                                  for point in points]


def test_single_point_validate_is_a_one_point_sweep(update_u):
    result, injector = update_u
    for point in (0, len(result.persist_log) // 2, len(result.persist_log)):
        assert as_tuples([injector.validate(point)]) == [
            reference_single(injector, point)]


# --- out-of-range points fail loudly ------------------------------------------------


@pytest.mark.parametrize("point", (-1, 10**6))
def test_out_of_range_point_raises(update_u, point):
    result, injector = update_u
    length = len(result.persist_log)
    message = r"crash point %d .* length %d" % (point, length)
    with pytest.raises(ValueError, match=message):
        injector.validate(point)
    with pytest.raises(ValueError, match=message):
        injector.validate_many(crash_points=[0, point])
    with pytest.raises(ValueError, match=message):
        injector.image_at(point)


def test_one_past_the_log_raises_and_the_log_end_does_not(update_u):
    result, injector = update_u
    length = len(result.persist_log)
    assert injector.validate(length).crash_point == length
    with pytest.raises(ValueError, match="crash point %d" % (length + 1)):
        injector.validate(length + 1)


@pytest.mark.parametrize("point", (-1, 10**6))
def test_out_of_range_point_raises_multicore(point):
    result = run_one("mpsc", configuration("WB"),
                     Scale(4, 3, seed=2021, cores=2))
    with pytest.raises(ValueError, match="crash point %d .* length %d"
                       % (point, len(result.persist_log))):
        validate_multicore(result.built, result.persist_log,
                           crash_points=[point])


# --- known defect ---------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="update/WB at Scale(10, 8, seed=14) is unrecoverable at crash "
           "points 157 and 158: addr 0x801204c8: recovered 74, expected "
           "16025 (txn boundary 7)")
def test_update_wb_seed14_recovers_everywhere():
    result = run_one("update", configuration("WB"), Scale(10, 8, seed=14))
    injector = CrashInjector(result.built, result.persist_log)
    bad = [(r.crash_point, r.mismatches) for r in injector.validate_many()
           if not r.consistent]
    assert bad == []
