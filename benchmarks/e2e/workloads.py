"""The four workloads of the end-to-end benchmark.

A workload is a sequence of passes; a pass is a fixed list of ops built
from one input seed; an op is one call into the program whose output the
benchmark checks against the golden corpus (``golden.py``).  Passes are
repeated until the run's time is up, each on the next seed of
:data:`SEED_POOL`, so an untraced run never feeds the program the same
input twice and an in-process memo cannot flatter it.

Every call into a layer goes through the attribute its own callers use
(``runner.run_one``, ``workload_base.build``, ...), so the span recorder
in ``trace.py`` sees the benchmark's calls as well as the program's.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.workloads  # noqa: F401  (registers every workload)
from repro.analysis import autotune
from repro.consistency import crash_sim
from repro.harness import runner
from repro.harness.configs import configuration
from repro.workloads import base as workload_base

from benchmarks.e2e.golden import (
    autotune_digest,
    run_digest,
    service_digest,
    sweep_digest,
    view_digest,
)

#: Input seeds with committed golden digests.  ``--seed`` picks where a
#: run starts (a pool member starts at itself, any other seed at its
#: residue); pass ``k`` takes the ``k``-th seed after that.  2021 is the
#: development seed and 7 the held-out one.  Seed 14 is left out: its
#: update/WB sweep has unrecoverable crash points (see README.md).
SEED_POOL = (2021,) + tuple(seed for seed in range(1, 17) if seed != 14)

#: The smoke sizes have goldens for the development seed only.
SMOKE_SEEDS = (2021,)


def start_seed(seed: int) -> int:
    return seed if seed in SEED_POOL else SEED_POOL[seed % len(SEED_POOL)]


def pool_seed(first: int, k: int) -> int:
    return SEED_POOL[(SEED_POOL.index(first) + k) % len(SEED_POOL)]


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How big each workload's inputs are; names its golden file."""

    name: str
    matrix: Tuple[int, int]      # (ops per txn, txns) of paper-matrix
    multicore: Tuple[int, int]
    recovery: Tuple[int, int]
    service: Tuple[int, int]     # scale of every service job
    service_seeds: int           # cold specs = 20 cells x this many seeds
    service_shared: int          # cold specs submitted twice back to back
    warm_repeats: int            # a warm pass asks for every spec this often
    setups: int                  # set-ups per run (setup_s is their median)


BENCH = Sizes("bench", matrix=(10, 10), multicore=(10, 10), recovery=(10, 8),
              service=(10, 5), service_seeds=2, service_shared=6,
              warm_repeats=4, setups=5)
SMOKE = Sizes("smoke", matrix=(3, 2), multicore=(3, 2), recovery=(3, 2),
              service=(3, 2), service_seeds=1, service_shared=2,
              warm_repeats=1, setups=1)

APPS = ("update", "swap", "btree", "ctree", "rbtree", "rtree")
CONFIGS = ("B", "SU", "IQ", "WB", "U")
SERVICE_APPS = ("update", "swap", "ctree", "rtree")


def _no_problem(result) -> Optional[str]:
    return None


@dataclasses.dataclass
class Op:
    """One timed call into the program and how to check what it returned."""

    id: str
    call: Callable[[], object]
    digest: Callable[[object], str]
    verify: Callable[[object], Optional[str]] = _no_problem


@dataclasses.dataclass
class Pass:
    seed: int            # input seed; selects the golden digests
    ops: List[Op]
    #: False when running the pass changes what a rerun would measure.
    repeatable: bool = True


# --- calls into the program ---------------------------------------------------


def _matrix_cell(app, config, scale, built):
    trace = built.get(config.fence_mode)
    if trace is None:
        trace = built[config.fence_mode] = workload_base.build(
            app, config.fence_mode, scale)
    return runner.run_one(app, config, scale, built=trace)


def _simulate(app, config, scale):
    return runner.run_one(app, config, scale)


def _sweep(app, config, scale):
    run = runner.run_one(app, config, scale)
    injector = crash_sim.CrashInjector(run.built, run.persist_log)
    return run, injector.validate_many()


def _sweep_multicore(app, config, scale):
    run = runner.run_one(app, config, scale)
    return run, crash_sim.validate_multicore(run.built, run.persist_log)


def _unrecoverable(outcome) -> Optional[str]:
    bad = sum(1 for report in outcome[1] if not report.consistent)
    return "%d unrecoverable crash points" % bad if bad else None


def _autotune(app, config_name, scale):
    return autotune.autotune_workload(app, config_name, scale,
                                      conservative=True)


def _autotune_problem(report) -> Optional[str]:
    if report.status not in (autotune.OPTIMIZED, autotune.PROVEN_MINIMAL):
        return "autotune status %s: %s" % (report.status, report.reason)
    if report.digest_match is False:
        return "autotuned program's recovered state differs"
    return None


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    #: Modules the set-up interpreter imports: what a user's process loads.
    modules: Tuple[str, ...] = ()
    #: Spans a traced run must see; every other probe must stay silent.
    spans: frozenset = frozenset()
    #: Client threads that execute a pass's ops.
    threads = 1

    def start(self, sizes: Sizes, run_dir: Path) -> None:
        """Set-up beyond importing the program."""

    def stop(self) -> None:
        """Undo :meth:`start`; must be safe to call twice."""

    def make_pass(self, k: int, first: int, sizes: Sizes) -> Pass:
        seed = pool_seed(first, k)
        return Pass(seed, self.ops(seed, sizes))

    def ops(self, seed: int, sizes: Sizes) -> List[Op]:
        raise NotImplementedError

    def reference_digests(self, seed: int, sizes: Sizes) -> Dict[str, str]:
        digests = {}
        for op in self.ops(seed, sizes):
            result = op.call()
            problem = op.verify(result)
            if problem is not None:
                raise ValueError("seed %d op %s cannot be golden: %s"
                                 % (seed, op.id, problem))
            digests[op.id] = op.digest(result)
        return digests

    def model_metrics(self, cycles: Dict[str, int]) -> Dict[str, float]:
        """Simulated-time results of the first traced pass."""
        return {}

    def metric_samples(self) -> Dict[str, float]:
        """The program's own /metrics, where it serves them."""
        return {}

    def child_pids(self) -> List[int]:
        """Processes :meth:`start` left running."""
        return []


_SIM_SPANS = frozenset((
    "workloads.build", "harness.run_one", "memory.nvm_drain",
    "consistency.check"))


class PaperMatrix(Workload):
    name = "paper-matrix"
    why = ("Fig. 9: 6 apps x 5 configs, one trace per fence mode, no "
           "caches; trace build and the replay pipeline do the work")
    modules = ("repro.workloads", "repro.harness.runner")
    spans = _SIM_SPANS | {"memory.warm", "pipeline.run"}

    #: Fig. 9 geomeans of execution time relative to B, from the paper.
    PAPER_GEOMEANS = {"SU": 0.95, "IQ": 0.85, "WB": 0.80, "U": 0.62}

    def ops(self, seed, sizes):
        scale = workload_base.Scale(*sizes.matrix, seed=seed)
        ops = []
        for app in APPS:
            built: Dict[str, object] = {}
            for name in CONFIGS:
                ops.append(Op("%s/%s" % (app, name),
                              functools.partial(_matrix_cell, app,
                                                configuration(name), scale,
                                                built),
                              run_digest))
        return ops

    def model_metrics(self, cycles):
        geomeans = {}
        for name in CONFIGS[1:]:
            logs = [math.log(cycles["%s/%s" % (app, name)]
                             / cycles["%s/B" % app]) for app in APPS]
            geomeans[name] = math.exp(sum(logs) / len(logs))
        err = sum(abs(geomeans[name] - paper)
                  for name, paper in self.PAPER_GEOMEANS.items())
        return {"sim.fig9_wb_geomean": geomeans["WB"],
                "sim.fig9_err": err / len(self.PAPER_GEOMEANS)}


class MulticoreContended(Workload):
    name = "multicore-contended"
    why = ("hazard/mpsc/counter x B/WB/U x 2,4 cores on the lockstep loop; "
           "never runs OutOfOrderCore.run, so it controls replay changes")
    modules = ("repro.workloads", "repro.harness.runner",
               "repro.multicore.system")
    spans = _SIM_SPANS | {"multicore.simulate"}

    def ops(self, seed, sizes):
        ops = []
        for app in ("hazard", "mpsc", "counter"):
            for name in ("B", "WB", "U"):
                for cores in (2, 4):
                    scale = workload_base.Scale(*sizes.multicore, seed=seed,
                                                cores=cores)
                    ops.append(Op("%s/%s/%dc" % (app, name, cores),
                                  functools.partial(_simulate, app,
                                                    configuration(name),
                                                    scale),
                                  run_digest))
        return ops


class Recovery(Workload):
    name = "recovery"
    why = ("crash sweeps of every point (update/swap x IQ/WB, 2-core "
           "mpsc/counter) plus the fence autotuner; image_at dominates")
    modules = ("repro.workloads", "repro.harness.runner",
               "repro.consistency.crash_sim", "repro.analysis.autotune")
    spans = _SIM_SPANS | {"memory.warm", "pipeline.run",
                          "multicore.simulate", "consistency.crash",
                          "analysis.autotune"}

    def ops(self, seed, sizes):
        scale = workload_base.Scale(*sizes.recovery, seed=seed)
        ops = []
        for app in ("update", "swap"):
            for name in ("IQ", "WB"):
                ops.append(Op("sweep/%s/%s" % (app, name),
                              functools.partial(_sweep, app,
                                                configuration(name), scale),
                              sweep_digest, _unrecoverable))
        two_cores = dataclasses.replace(scale, cores=2)
        for app in ("mpsc", "counter"):
            ops.append(Op("sweep/%s/WB/2c" % app,
                          functools.partial(_sweep_multicore, app,
                                            configuration("WB"), two_cores),
                          sweep_digest, _unrecoverable))
        for name in ("B", "IQ"):
            ops.append(Op("autotune/update/%s" % name,
                          functools.partial(_autotune, "update", name, scale),
                          autotune_digest, _autotune_problem))
        return ops


class ServiceJobs(Workload):
    """A 1-shard cluster behind a coordinator, driven by 2 client threads.

    Pass 0 is the cold phase: every spec of the run's seed once, in a
    seeded order; ``service_shared`` of them are submitted a second time,
    under a second client id, right after the first submission, so the
    scheduler must coalesce the two.  Every later pass is warm: each
    completed spec ``warm_repeats`` times, shuffled.  A request is
    ``submit_retrying``, ``wait(via_events=True)``, then ``result``.
    """

    name = "service-jobs"
    why = ("2 closed-loop clients via coordinator and 1 shard: cold jobs "
           "simulate and write the cache, warm repeats are served from the "
           "shard's job registry")
    modules = ("repro.cluster.coordinator", "repro.cluster.local",
               "repro.service")
    spans = frozenset(("service.submit", "service.wait", "service.result"))
    threads = 2

    def __init__(self) -> None:
        self.cluster = None
        self.coordinator = None
        self.port: Optional[int] = None

    def specs(self, seed: int, sizes: Sizes) -> list:
        from repro.service import JobSpec

        ops_per_txn, txns = sizes.service
        return [JobSpec(kind="simulate", workload=app, config=name,
                        ops_per_txn=ops_per_txn, txns=txns,
                        seed=seed * 100 + offset)
                for offset in range(sizes.service_seeds)
                for app in SERVICE_APPS
                for name in CONFIGS]

    @staticmethod
    def spec_id(spec) -> str:
        return "%s/%s/s%d" % (spec.workload, spec.config, spec.seed)

    def start(self, sizes, run_dir):
        from repro.cluster.coordinator import ThreadedCoordinator
        from repro.cluster.local import LocalCluster

        self.stop()
        self.cluster = LocalCluster(shards=1, workers_per_shard=1,
                                    workdir=run_dir / "cluster",
                                    cache_dir=run_dir / "cache")
        self.cluster.start()
        # The benchmark measures capacity, so the per-tenant rate limit
        # (a policy against abusive clients) is set out of reach.
        self.coordinator = ThreadedCoordinator(
            shards=self.cluster.addresses, probe_interval_s=1.0,
            rate=1e6, burst=10 ** 6)
        self.coordinator.start()
        self.port = self.coordinator.port
        probe = self._client("setup")
        deadline = time.monotonic() + 60
        while not all(shard["routable"]
                      for shard in probe.healthz()["shards"].values()):
            if time.monotonic() > deadline:
                raise RuntimeError("cluster never became routable")
            time.sleep(0.01)

    def stop(self):
        if self.coordinator is not None:
            self.coordinator.stop()
            self.coordinator = None
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None

    def child_pids(self):
        return [worker.process.pid for worker in self.cluster.workers]

    def metric_samples(self) -> Dict[str, float]:
        return self._client("metrics").metric_samples()

    def _client(self, client_id: str):
        from repro.service import ServiceClient

        return ServiceClient(port=self.port, client_id=client_id)

    def _request(self, spec, shared: bool = False) -> dict:
        name = threading.current_thread().name
        client = self._client(name)
        status = client.submit_retrying(spec, give_up_after_s=30.0)
        if shared:
            self._client(name + "-dup").submit_retrying(
                spec, give_up_after_s=30.0)
        final = client.wait(status["id"], timeout=120.0, via_events=True)
        if final["state"] != "done":
            raise RuntimeError("job %s ended %s: %s" % (
                status["id"], final["state"], final.get("error")))
        return client.result(status["id"])

    def make_pass(self, k, first, sizes):
        specs = self.specs(first, sizes)
        rng = random.Random(first * 1000 + k)
        order = specs * (1 if k == 0 else sizes.warm_repeats)
        rng.shuffle(order)
        shared = set(order[:sizes.service_shared]) if k == 0 else set()
        return Pass(first, [Op(self.spec_id(spec),
                               functools.partial(self._request, spec,
                                                 spec in shared),
                               view_digest)
                            for spec in order],
                    repeatable=k > 0)

    def reference_digests(self, seed, sizes):
        digests = {}
        for spec in self.specs(seed, sizes):
            run = runner.run_one(spec.workload, spec.configuration, spec.scale)
            digests[self.spec_id(spec)] = service_digest(
                run.cycles, run.instructions, run.consistency.verdict,
                len(run.consistency.violations), run.nvm_media_writes)
        return digests


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (PaperMatrix, MulticoreContended, Recovery, ServiceJobs)
}
