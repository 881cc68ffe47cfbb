"""Golden crash-sweep reports: every point must keep reporting as recorded.

``fixtures/sweep_reports.json`` pins, for every case, the number of
crash points, how many of them fail recovery, and the sha256 of every
point's ``(crash_point, committed_txns, mismatches)``, so a change to
how committed states are recorded or compared must reproduce each
report byte for byte, mismatch strings and their order included.
Cases:

- ``update|swap/<config>@<seed>``: every configuration over the e2e
  seed pool (2021 and 1-16 without 14) plus seed 14 at ``Scale(10, 8)``,
  through ``CrashInjector.validate_many``;
- ``mpsc|counter/<config>@<seed>x<cores>``: B, IQ, WB and U over seeds
  2021, 7 and 14 on 2 and 4 cores at ``Scale(10, 8)``, through
  ``validate_multicore``.

A change meant to keep results must leave the fixture unchanged; one
meant to alter them re-records it in the same commit::

    PYTHONPATH=src python -m tests.consistency.test_sweep_golden --record
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.consistency.crash_sim import CrashInjector, validate_multicore
from repro.harness import configuration, run_one
from repro.workloads import Scale

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "sweep_reports.json"

SEED_POOL = (2021,) + tuple(seed for seed in range(1, 17) if seed != 14)
SINGLE_SEEDS = SEED_POOL + (14,)
MULTI_SEEDS = (2021, 7, 14)


def _single(workload: str, config: str, seed: int):
    result = run_one(workload, configuration(config), Scale(10, 8, seed=seed))
    return CrashInjector(result.built, result.persist_log).validate_many()


def _multi(workload: str, config: str, seed: int, cores: int):
    result = run_one(workload, configuration(config),
                     Scale(10, 8, seed=seed, cores=cores))
    return validate_multicore(result.built, result.persist_log)


def cases() -> Dict[str, Callable]:
    out: Dict[str, Callable] = {}
    for workload in ("update", "swap"):
        for config in ("B", "SU", "IQ", "WB", "U"):
            for seed in SINGLE_SEEDS:
                out["%s/%s@%d" % (workload, config, seed)] = functools.partial(
                    _single, workload, config, seed)
    for workload in ("mpsc", "counter"):
        for config in ("B", "IQ", "WB", "U"):
            for seed in MULTI_SEEDS:
                for cores in (2, 4):
                    out["%s/%s@%dx%d" % (workload, config, seed, cores)] = (
                        functools.partial(_multi, workload, config, seed,
                                          cores))
    return out


def summarize(reports) -> dict:
    """What the fixture pins for one sweep."""
    points = [[r.crash_point, r.committed_txns, r.mismatches]
              for r in reports]
    payload = json.dumps(points)
    return {
        "points": len(points),
        "unrecoverable": sum(1 for r in reports if r.mismatches),
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }


@functools.lru_cache(maxsize=None)
def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


CASES = cases()


def test_fixture_covers_every_case():
    assert sorted(load()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_golden(case):
    assert summarize(CASES[case]()) == load()[case], case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the fixture from the current code")
    args = parser.parse_args(argv)
    actual = {case: summarize(call()) for case, call in sorted(CASES.items())}
    if args.record:
        FIXTURE.write_text(json.dumps(actual, indent=1) + "\n",
                           encoding="utf-8")
        print("recorded %d cases to %s" % (len(actual), FIXTURE.name))
        return 0
    golden = load()
    drift = sorted(case for case in actual if golden.get(case) != actual[case])
    print("%d/%d cases match" % (len(actual) - len(drift), len(actual)))
    for case in drift:
        print("  drift: %s" % case)
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
