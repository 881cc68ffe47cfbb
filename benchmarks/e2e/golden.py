"""Golden digests: what every benchmark op must reproduce bit for bit.

The digests are the benchmark's own, over a fixed list of fields, so that
adding a field to a stats object of the program does not invalidate them
(``repro.service.result_digest`` hashes ``asdict(stats)`` and would).  A
digest is the first 16 hex digits of a SHA-256.

``golden/<sizes>.json`` maps workload -> input seed -> op id -> digest.
Regenerate it only for a change that is meant to alter simulated results:

    PYTHONPATH=src python -m benchmarks.e2e.golden

The service workload's digests are computed in-process with
:func:`repro.harness.runner.run_one`, so the served results are checked
against a path that does not go through the service.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def run_digest(run) -> str:
    """Digest of one simulation's measured outputs."""
    stats = run.stats
    return _sha((
        run.cycles,
        stats.retired,
        stats.retire_stall_wb_full,
        stats.retire_stall_dsb,
        stats.retire_stall_wait,
        stats.dispatch_stall_rob,
        stats.dispatch_stall_iq,
        stats.dispatch_stall_lsq,
        sorted(stats.issue_histogram.items()),
        run.nvm_media_writes,
        run.nvm_coalesced_writes,
        list(run.nvm_pending_samples),
        [(r.seq, r.cycle, r.line_addr, r.kind, r.tag, r.inst_seq)
         for r in run.persist_log],
        run.consistency.verdict,
    ))


def sweep_digest(outcome) -> str:
    """Digest of a crash sweep: the simulation and every point's verdict."""
    run, reports = outcome
    return _sha((run_digest(run),
                 [(r.crash_point, r.committed_txns, r.consistent)
                  for r in reports]))


def autotune_digest(report) -> str:
    return _sha((report.status, report.program_after))


def service_digest(cycles: int, instructions: int, verdict: str,
                   violations: int, nvm_media_writes: int) -> str:
    """Digest of the fields the service's JSON result view carries."""
    return _sha((cycles, instructions, verdict, violations, nvm_media_writes))


def view_digest(view: dict) -> str:
    return service_digest(view["cycles"], view["instructions"],
                          view["verdict"], view["violations"],
                          view["nvm_media_writes"])


class Corpus:
    """Committed digests for one set of sizes."""

    def __init__(self, digests: Dict[str, Dict[str, Dict[str, str]]]):
        self.digests = digests

    @classmethod
    def load(cls, sizes_name: str) -> "Corpus":
        path = GOLDEN_DIR / ("%s.json" % sizes_name)
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def check(self, workload: str, seed: int, op_id: str,
              digest: str) -> Optional[str]:
        """``None`` when ``digest`` matches, else what went wrong."""
        expected = self.digests.get(workload, {}).get(str(seed), {}).get(op_id)
        if expected is None:
            return "no golden digest for %s seed %d op %s" % (
                workload, seed, op_id)
        if expected != digest:
            return "digest %s != golden %s" % (digest, expected)
        return None


def record(sizes, seeds) -> Dict[str, Dict[str, Dict[str, str]]]:
    """Digests of one pass of every workload for each seed."""
    from benchmarks.e2e import workloads

    corpus: Dict[str, Dict[str, Dict[str, str]]] = {}
    for cls in workloads.WORKLOADS.values():
        workload = cls()
        per_seed = corpus.setdefault(workload.name, {})
        for seed in seeds:
            per_seed[str(seed)] = workload.reference_digests(seed, sizes)
            print("%s seed %d: %d digests"
                  % (workload.name, seed, len(per_seed[str(seed)])),
                  flush=True)
    return corpus


def main() -> None:
    from benchmarks.e2e import workloads
    from benchmarks.e2e.benchmark import env_problem

    problem = env_problem()
    if problem is not None:
        raise SystemExit("error: %s" % problem)
    for sizes, seeds in ((workloads.SMOKE, workloads.SMOKE_SEEDS),
                         (workloads.BENCH, workloads.SEED_POOL)):
        corpus = record(sizes, seeds)
        path = GOLDEN_DIR / ("%s.json" % sizes.name)
        path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main()
