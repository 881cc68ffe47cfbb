"""The cyclic-GC pause owner: the GC ends as it began however the
pauses nest, overlap across threads or end, and no collection starts
inside a trace build or a run."""

import gc
import sys
import threading

import pytest

from repro.gcpause import paused
from repro.harness import runner
from repro.harness.configs import DEFAULT_PARAMS, configuration
from repro.isa import instructions as ops
from repro.multicore.system import drive
from repro.pipeline.core import SimulationError
from repro.workloads import Scale
from repro.workloads import base as workload_base

from tests.pipeline.conftest import NVM, make_core


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_was(request):
    """The GC state a test starts from; the caller's own ``gc.disable()``
    is the ``gc-off`` case.  Restores the state the test found."""
    outer = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if outer else gc.disable)()


def _trace(stores=8):
    trace = [ops.mov_imm(0, NVM), ops.mov_imm(1, 5)]
    for index in range(stores):
        trace += [ops.store(1, 0, addr=NVM + 64 * index),
                  ops.dc_cvap(0, addr=NVM + 64 * index)]
    return trace + [ops.halt()]


def test_nested(gc_was):
    with paused():
        assert not gc.isenabled()
        with paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is gc_was


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_overlapping_threads(gc_was, threads):
    """Every thread is inside before any leaves; they leave one by one,
    and the GC stays off until the last has left."""
    inside = threading.Barrier(threads, timeout=10)
    left = [threading.Event() for _ in range(threads)]
    seen = []

    def worker(index):
        try:
            with paused():
                inside.wait()
                if index:
                    assert left[index - 1].wait(timeout=10)
                seen.append(gc.isenabled())
        finally:
            left[index].set()

    workers = [threading.Thread(target=worker, args=(index,))
               for index in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=20)
    assert seen == [False] * threads
    assert gc.isenabled() is gc_was


def test_exception_inside(gc_was):
    with pytest.raises(ValueError):
        with paused():
            raise ValueError("boom")
    assert gc.isenabled() is gc_was


def test_stuck_run(gc_was):
    """The loop's internal ``_Stuck`` leaves through its pause."""
    core, _ = make_core(_trace())
    with pytest.raises(SimulationError, match="cycle budget"):
        core.run(max_cycles=3)
    assert gc.isenabled() is gc_was


def test_stuck_machine(gc_was):
    cores = [make_core(_trace())[0] for _ in range(2)]
    with pytest.raises(SimulationError, match="cycle budget"):
        drive(cores, max_cycles=3)
    assert gc.isenabled() is gc_was


def test_lockstep_generator_dropped_before_it_finishes(gc_was):
    core, _ = make_core(_trace())
    loop = core.lockstep()
    core.now = 0
    next(loop)
    assert not gc.isenabled()
    del loop
    assert core.stats.cycles > 0  # closing it synced the core
    assert gc.isenabled() is gc_was


@pytest.mark.parametrize("workload, cores", [("update", 1), ("mpsc", 2)])
def test_no_collection_starts_inside_build_or_run_one(workload, cores):
    """With the GC on, a ``gc.callbacks`` hook sees no collection start
    while a build or a run is on the stack, and sees the first one
    after them."""
    paused_code = {workload_base.build.__code__, runner.run_one.__code__}
    inside, outside = [], []

    def on_gc(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in paused_code:
            frame = frame.f_back
        (outside if frame is None else inside).append(info["generation"])

    config = configuration("WB")
    scale = Scale(4, 3, cores=cores)
    outer = gc.isenabled()
    gc.enable()
    gc.callbacks.append(on_gc)
    try:
        gc.collect()
        built = workload_base.build(workload, config.fence_mode, scale)
        gc.collect()
        runner.run_one(workload, config, scale, DEFAULT_PARAMS, built=built)
        gc.collect()
        runner.run_one(workload, config, scale)
        outside.clear()
        garbage = [[] for _ in range(2 * gc.get_threshold()[0])]
    finally:
        gc.callbacks.remove(on_gc)
        (gc.enable if outer else gc.disable)()
    assert inside == []
    assert outside and len(garbage)
