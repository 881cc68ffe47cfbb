"""Golden digest corpus: what the simulator must keep producing, bit for bit.

The corpus pins the results of a fixed set of small simulations:

- ``matrix/<workload>/<config>``: every registered workload under every
  configuration at ``Scale(4, 3)``;
- ``multicore/<workload>/<config>/<n>c``: every workload at 1 core and the
  contended workloads at 2 and 4 cores, through the lockstep driver
  (:func:`repro.multicore.system.simulate_built`);
- ``squash/<case>``: the hand-written squash-injection cases of
  ``tests/pipeline/test_core_squash.py``;
- ``squash/<workload>/<config>/...``: squash injection on real traces,
  with squash points placed just after barriers, so the refetch
  re-dispatches flushed DMBs (SU builds: the DMB epochs rewind), DSBs
  (B builds) and WAITs (EDE builds).

Digests come from :func:`benchmarks.e2e.golden.run_digest`, which hashes a
fixed list of fields, so adding a statistic to the program does not
invalidate them.  Core-level cases also hash the store-visibility records
and every instruction's completion cycle.

A change meant to keep results must leave the corpus unchanged; a change
meant to alter them re-records it in the same commit::

    PYTHONPATH=src python -m tests.golden.record           # re-record
    PYTHONPATH=src python -m tests.golden.record --check   # exit 1 on drift
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict

from benchmarks.e2e.golden import run_digest
from repro.consistency.checker import check_run
from repro.core.policies import IQ_POLICY, WB_POLICY
from repro.harness.configs import CONFIGURATIONS, DEFAULT_PARAMS, configuration
from repro.harness.runner import run_one
from repro.isa.opcodes import Opcode
from repro.memory.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy, warm_hierarchy
from repro.multicore.system import simulate_built
from repro.pipeline.core import OutOfOrderCore, SimulationError
from repro.workloads import Scale
from repro.workloads import base as workload_base

CORPUS_PATH = Path(__file__).resolve().parent / "corpus.json"

SCALE = Scale(ops_per_txn=4, txns=3)
CONFIG_NAMES = tuple(config.name for config in CONFIGURATIONS)
MULTICORE_WORKLOADS = ("hazard", "mpsc", "counter")
CORE_COUNTS = (1, 2, 4)


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def _run_view(stats, controller, consistency):
    """What ``run_digest`` reads, for a simulation run outside ``run_one``
    (after ``controller.nvm.drain_all``, as ``run_one`` does)."""
    return SimpleNamespace(
        cycles=stats.cycles,
        stats=stats,
        nvm_media_writes=controller.nvm.stats.media_writes,
        nvm_coalesced_writes=controller.nvm.stats.coalesced_writes,
        nvm_pending_samples=list(controller.nvm.pending_samples),
        persist_log=controller.persist_log,
        consistency=consistency,
    )


def _core_digest(core, controller) -> str:
    """Digest of a core-level run: ``run_digest`` plus visibility and
    per-instruction completion cycles (captured through ``on_complete``).
    A run that dies with :class:`SimulationError` digests its message."""
    completions = []
    core.on_complete = lambda dyn: completions.append(
        (dyn.seq, dyn.complete_cycle))
    try:
        stats = core.run()
    except SimulationError as error:
        return "error:" + _sha(str(error).splitlines()[0])
    controller.nvm.drain_all(stats.cycles)
    run = _run_view(stats, controller, SimpleNamespace(verdict=None))
    return _sha((run_digest(run), stats.squashes, core.store_visibility,
                 completions))


# --- case builders ---------------------------------------------------------


def _matrix(workload: str, config_name: str) -> str:
    return run_digest(run_one(workload, configuration(config_name), SCALE))


def _multicore(workload: str, config_name: str, cores: int) -> str:
    config = configuration(config_name)
    scale = Scale(SCALE.ops_per_txn, SCALE.txns, cores=cores)
    built = workload_base.build(workload, config.fence_mode, scale)
    sim = simulate_built(built, config, DEFAULT_PARAMS)
    sim.controller.nvm.drain_all(sim.stats.cycles)
    consistency = check_run(
        obligations=built.obligations,
        persist_log=sim.controller.persist_log,
        store_visibility=sim.store_visibility,
        safe_by_spec=config.safe_by_spec,
    )
    return run_digest(_run_view(sim.stats, sim.controller, consistency))


def _squash_trace(policy, squash_at) -> str:
    from tests.pipeline.conftest import make_core
    from tests.pipeline.test_core_squash import LINES, ede_trace

    core, controller = make_core(ede_trace(), policy=policy,
                                 warm_lines=LINES, squash_at=squash_at)
    return _core_digest(core, controller)


_BARRIERS = (Opcode.DMB_ST, Opcode.DMB_SY, Opcode.DSB_SY,
             Opcode.WAIT_KEY, Opcode.WAIT_ALL_KEYS)


def barrier_squash_points(trace, picks):
    """Trace indices a few instructions past selected barriers."""
    barriers = [index for index, inst in enumerate(trace)
                if inst.opcode in _BARRIERS]
    return sorted({barriers[pick] + offset for pick, offset in picks})


def squash_workload_core(workload: str, config_name: str, picks):
    """A warmed core over a real trace with barrier-relative squashes."""
    config = configuration(config_name)
    built = workload_base.build(workload, config.fence_mode, SCALE)
    params = DEFAULT_PARAMS
    controller = MemoryController(
        address_map=params.address_map,
        dram_params=params.dram,
        nvm_params=params.nvm,
    )
    hierarchy = CacheHierarchy(controller, params.hierarchy)
    warm_hierarchy(hierarchy, built)
    core = OutOfOrderCore(built.trace, hierarchy, config.policy, params.core,
                          squash_at=barrier_squash_points(built.trace, picks))
    return core, controller


#: Real-trace squash cases: name -> (workload, config, (pick, offset)
#: pairs), squashing ``offset`` instructions past the ``pick``-th barrier.
#: ``update/SU/1+2`` flushes a load that has already completed (and so
#: already left its DMB memory epoch).
SQUASH_WORKLOADS = {
    "update/SU/0+1": ("update", "SU", ((0, 1),)),
    "update/SU/1+2": ("update", "SU", ((1, 2),)),
    "update/SU/0+2,4+4": ("update", "SU", ((0, 2), (4, 4))),
    "swap/SU/3+1,6+4": ("swap", "SU", ((3, 1), (6, 4))),
    "btree/SU/2+8,10+3": ("btree", "SU", ((2, 8), (10, 3))),
    "rbtree/SU/many": ("rbtree", "SU", ((0, 1), (5, 2), (9, 6), (-2, 1))),
    "ctree/SU/6+1": ("ctree", "SU", ((6, 1),)),
    "update/B/2+1,12+4": ("update", "B", ((2, 1), (12, 4))),
    "btree/B/many": ("btree", "B", ((0, 1), (5, 2), (9, 6), (-2, 1))),
    "update/WB/1+2": ("update", "WB", ((1, 2),)),
    "btree/IQ/3+3": ("btree", "IQ", ((3, 3),)),
}


def cases() -> Dict[str, Callable[[], str]]:
    """Case id -> zero-argument digest function."""
    table: Dict[str, Callable[[], str]] = {}
    for workload in workload_base.workload_names():
        for name in CONFIG_NAMES:
            table["matrix/%s/%s" % (workload, name)] = (
                lambda w=workload, n=name: _matrix(w, n))
    for workload in workload_base.workload_names():
        counts = CORE_COUNTS if workload in MULTICORE_WORKLOADS else (1,)
        for name in CONFIG_NAMES:
            for cores in counts:
                table["multicore/%s/%s/%dc" % (workload, name, cores)] = (
                    lambda w=workload, n=name, c=cores: _multicore(w, n, c))
    squash = {
        "wb-at-5": (WB_POLICY, [5]),
        "iq-at-5": (IQ_POLICY, [5]),
        "wb-clean": (WB_POLICY, []),
        "wb-at-3-6": (WB_POLICY, [3, 6]),
        "iq-at-0": (IQ_POLICY, [0]),
    }
    for case, (policy, points) in squash.items():
        table["squash/%s" % case] = (
            lambda p=policy, s=points: _squash_trace(p, s))
    for case, (workload, name, picks) in SQUASH_WORKLOADS.items():
        table["squash/%s" % case] = (
            lambda w=workload, n=name, p=picks:
            _core_digest(*squash_workload_core(w, n, p)))
    return table


def load_corpus() -> Dict[str, str]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed corpus instead "
                             "of rewriting it; exit 1 on any difference")
    args = parser.parse_args(argv)
    digests = {case: fn() for case, fn in sorted(cases().items())}
    if not args.check:
        CORPUS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
        print("wrote %d digests to %s" % (len(digests), CORPUS_PATH))
        return 0
    golden = load_corpus()
    drift = sorted(case for case in set(golden) | set(digests)
                   if golden.get(case) != digests.get(case))
    for case in drift:
        print("DRIFT %s: %s != golden %s"
              % (case, digests.get(case), golden.get(case)))
    print("%d/%d digests match" % (len(digests) - len(drift), len(golden)))
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
