"""Golden analyzer reports: the static analyzer must keep deciding as recorded.

``fixtures/analysis_reports.json`` pins the sha256 of
:meth:`AnalysisReport.to_dict` (every finding, obligation verdict and
the fence linter's redundant sites) for three kinds of case:

- ``workload/<name>/<mode>``: every workload under every fence mode,
  ``+cons`` included, at ``TEST_SCALE``;
- ``fixture/<file>``: every ``fixtures/*.s`` program;
- ``random/<seed>``: seeded random EDE programs with forward branches,
  back-edge loops, ``JOIN``, ``WAIT_KEY``/``WAIT_ALL_KEYS``,
  ``DSB``/``DMB`` and tagged persists.  For these it also pins every
  ``waits_on``, ``wait_covers`` and ``has_consumer`` answer over all site
  pairs, and the prover's verdict for every obligation between two
  tagged sites.

A change meant to keep results must leave the fixture unchanged; one
meant to alter them re-records it in the same commit::

    PYTHONPATH=src python -m tests.analysis.test_analysis_golden --record
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.keystate import KeyStateAnalysis
from repro.analysis.persist import PersistProver, derive_obligations
from repro.analysis.report import analyze_instructions, analyze_program, analyze_workload
from repro.consistency.obligations import Obligation
from repro.isa import instructions as ops
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.nvmfw.codegen import ALL_MODES, CONS_SUFFIX
from repro.workloads.base import TEST_SCALE, workload_names

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "analysis_reports.json"
PROGRAMS = sorted((HERE / "fixtures").glob("*.s"))
SEEDS = range(48)


def sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- random branchy programs ----------------------------------------------------


def random_program(seed: int) -> Tuple[List[Instruction], Dict[str, int]]:
    """A random EDE program with branches and loops, plus its labels."""
    rng = random.Random(seed)
    length = rng.randint(12, 40)
    keys = rng.randint(2, 6)
    counter = {"log": 0, "store": 0, "data": 0, "init": 0, "commit": 0}
    labels: Dict[str, int] = {}

    def key():
        return rng.randint(1, keys)

    def maybe_key():
        return key() if rng.random() < 0.6 else 0

    def tag():
        kind = rng.choice(("log", "log", "store", "store", "data", "init",
                           "commit"))
        number = counter[kind]
        if rng.random() < 0.7:
            counter[kind] += 1
        return "%s:%d" % (kind, number)

    def label(target: int) -> str:
        name = "L%d" % target
        labels[name] = target
        return name

    program: List[Instruction] = []
    for site in range(length):
        roll = rng.random()
        if roll < 0.20:
            program.append(ops.dc_cvap_ede(2, maybe_key(), maybe_key(),
                                           comment=tag()))
        elif roll < 0.30:
            program.append(ops.store_ede(1, 2, maybe_key(), maybe_key(),
                                         comment=tag()))
        elif roll < 0.35:
            program.append(ops.dc_cvap(2, comment=tag()))
        elif roll < 0.39:
            program.append(ops.store(1, 2, comment=tag()))
        elif roll < 0.45:
            program.append(ops.store_ede(1, 2, key(), maybe_key()))
        elif roll < 0.51:
            program.append(ops.join(maybe_key(), maybe_key(), maybe_key()))
        elif roll < 0.58:
            program.append(ops.wait_key(key()))
        elif roll < 0.62:
            program.append(ops.wait_all_keys())
        elif roll < 0.68:
            program.append(ops.dsb_sy())
        elif roll < 0.71:
            program.append(ops.dmb_sy())
        elif roll < 0.74:
            program.append(ops.dmb_st())
        elif roll < 0.83:  # forward conditional branch
            target = rng.randint(site + 1, length)
            program.append(ops.branch_cond(
                rng.choice((Opcode.B_EQ, Opcode.B_NE)), label(target)))
        elif roll < 0.90:  # back edge: a loop
            target = rng.randint(0, site)
            program.append(ops.branch_cond(Opcode.B_NE, label(target)))
        elif roll < 0.93:  # forward jump (may strand a block)
            target = rng.randint(site + 1, length)
            program.append(ops.branch(label(target)))
        else:
            program.append(ops.mov_imm(3, rng.randint(0, 9)))
    program.append(ops.halt())
    return program, labels


def pair_obligations(program: List[Instruction]) -> List[Obligation]:
    """The derived obligations, then one between every two distinct tags."""
    tags = sorted({inst.comment for inst in program if inst.comment is not None})
    obligations = list(derive_obligations(program))
    obligations.extend(Obligation("pair", first, second, -1, -1)
                       for first in tags for second in tags if first != second)
    return obligations


def key_analysis(program, cfg):
    """The key-dependence queries the ordering checks are built on."""
    return KeyStateAnalysis(program, cfg)


def random_case(seed: int) -> dict:
    program, labels = random_program(seed)
    report = analyze_instructions(program, labels=labels,
                                  target="random/%d" % seed,
                                  obligations=derive_obligations(program))
    cfg = build_cfg(program, labels)
    analysis = key_analysis(program, cfg)
    sites = range(len(program))
    prover = PersistProver(program, analysis)
    verdicts = [(v.verdict, v.reason)
                for v in prover.prove_all(pair_obligations(program))]
    return {
        "report_sha256": sha256(report.to_dict()),
        "waits_on_sha256": sha256(["".join(
            "1" if analysis.waits_on(x, a) else "0" for a in sites)
            for x in sites]),
        "wait_covers_sha256": sha256(["".join(
            "1" if analysis.wait_covers(w, a) else "0" for a in sites)
            for w in sites]),
        "has_consumer": "".join(
            "1" if analysis.has_consumer(a) else "0" for a in sites),
        "verdicts": "".join(verdict[0] for verdict, _reason in verdicts),
        "verdicts_sha256": sha256(verdicts),
    }


# --- cases --------------------------------------------------------------------


def workload_case(name: str, mode: str) -> dict:
    return {"report_sha256": sha256(analyze_workload(name, mode, TEST_SCALE).to_dict())}


def program_case(path: Path) -> dict:
    report = analyze_program(str(path))
    report.target = path.name  # independent of where the checkout lives
    return {"report_sha256": sha256(report.to_dict())}


def cases() -> Dict[str, Callable[[], dict]]:
    out: Dict[str, Callable[[], dict]] = {}
    modes = list(ALL_MODES) + [mode + CONS_SUFFIX for mode in ALL_MODES]
    for name in workload_names():
        for mode in modes:
            out["workload/%s/%s" % (name, mode)] = functools.partial(
                workload_case, name, mode)
    for path in PROGRAMS:
        out["fixture/%s" % path.name] = functools.partial(program_case, path)
    for seed in SEEDS:
        out["random/%d" % seed] = functools.partial(random_case, seed)
    return out


@functools.lru_cache(maxsize=None)
def load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


CASES = cases()


def test_fixture_covers_every_case():
    assert sorted(load()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_analysis_matches_golden(case):
    expected = load()[case]
    actual = CASES[case]()
    for field in sorted(expected):
        assert actual.get(field) == expected[field], "%s: %s differs" % (case, field)
    assert sorted(actual) == sorted(expected), case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite the fixture from the current code")
    args = parser.parse_args(argv)
    actual = {case: call() for case, call in sorted(CASES.items())}
    if args.record:
        lines = ["{"]
        for n, (case, entry) in enumerate(actual.items()):
            lines.append("  %s: %s%s" % (json.dumps(case),
                                         json.dumps(entry, sort_keys=True),
                                         "," if n + 1 < len(actual) else ""))
        lines.append("}")
        FIXTURE.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print("recorded %d cases to %s" % (len(actual), FIXTURE.name))
        return 0
    golden = load()
    drift = sorted(case for case in actual if golden.get(case) != actual[case])
    missing = sorted(set(golden) - set(actual))
    print("%d/%d cases match" % (len(actual) - len(drift), len(actual)))
    for case in drift:
        print("  drift: %s" % case)
    for case in missing:
        print("  missing: %s" % case)
    return 1 if drift or missing else 0


if __name__ == "__main__":
    sys.exit(main())
