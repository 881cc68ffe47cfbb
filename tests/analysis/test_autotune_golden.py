"""Golden autotuner reports: the search must keep ruling exactly as recorded.

``fixtures/autotune_reports.json`` pins, for every case, the sha256 of
:meth:`OptimizationReport.to_dict` and every trial's ``(kind, detail,
accepted, reason, verdicts)``, so a change to the static oracle that
keeps results must reproduce each ruling byte for byte, down to which
obligation a rejection names first.  Cases:

- ``update/{B,IQ}+cons@<seed>``: the e2e seed pool (2021 and 1-16
  without 14) at ``Scale(10, 8)``;
- ``bench/<target>``: every ``benchmarks/bench_autotune.py`` target at
  ``TEST_SCALE``.

A change meant to keep results must leave the fixture unchanged; one
meant to alter them re-records it in the same commit::

    PYTHONPATH=src python -m tests.analysis.test_autotune_golden --record
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

from benchmarks.bench_autotune import BENCH_TARGETS
from repro.analysis.autotune import autotune_workload
from repro.workloads.base import TEST_SCALE, Scale

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "autotune_reports.json"

SEED_POOL = (2021,) + tuple(seed for seed in range(1, 17) if seed != 14)


def cases() -> Dict[str, Callable]:
    out: Dict[str, Callable] = {}
    for seed in SEED_POOL:
        for config in ("B", "IQ"):
            out["update/%s+cons@%d" % (config, seed)] = functools.partial(
                autotune_workload, "update", config, Scale(10, 8, seed=seed),
                conservative=True)
    for workload, config, cons in BENCH_TARGETS:
        out["bench/%s/%s%s" % (workload, config, "+cons" if cons else "")] = (
            functools.partial(autotune_workload, workload, config, TEST_SCALE,
                              conservative=cons))
    return out


def summarize(report) -> dict:
    """What the fixture pins for one report."""
    payload = json.dumps(report.to_dict(), sort_keys=True)
    return {
        "report_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "trials": [[t.kind, t.detail, t.accepted, t.reason, t.verdicts]
                   for t in report.trials],
    }


@functools.lru_cache(maxsize=None)
def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


CASES = cases()


def test_fixture_covers_every_case():
    assert sorted(load()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    expected = load()[case]
    actual = summarize(CASES[case]())
    for index, (want, got) in enumerate(zip(expected["trials"],
                                            actual["trials"])):
        assert got == want, "%s: trial %d differs" % (case, index)
    assert len(actual["trials"]) == len(expected["trials"]), case
    assert actual["report_sha256"] == expected["report_sha256"], case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the fixture from the current code")
    args = parser.parse_args(argv)
    actual = {case: summarize(call()) for case, call in sorted(CASES.items())}
    if args.record:
        lines = ["{"]
        for n, (case, entry) in enumerate(actual.items()):
            lines.append("  %s: {" % json.dumps(case))
            lines.append('    "report_sha256": %s,'
                         % json.dumps(entry["report_sha256"]))
            lines.append('    "trials": [')
            trials = [json.dumps(t) for t in entry["trials"]]
            lines.extend("      %s%s" % (t, "," if i + 1 < len(trials) else "")
                         for i, t in enumerate(trials))
            lines.append("    ]")
            lines.append("  }%s" % ("," if n + 1 < len(actual) else ""))
        lines.append("}")
        FIXTURE.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
