#!/usr/bin/env python3
"""Crash injection: why the fences (or EDE) are there at all.

Runs the swap kernel under the safe WB configuration and the Unsafe one,
then simulates a crash at every persist-order prefix and replays undo-log
recovery.  Under WB every crash point recovers to a transaction boundary;
under U, many do not.

Run:  python examples/crash_recovery.py
"""

from repro.consistency.crash_sim import CrashInjector
from repro.harness import configuration, run_one
from repro.workloads import Scale


def examine(config_name: str) -> None:
    scale = Scale(ops_per_txn=6, txns=4)
    result = run_one("swap", configuration(config_name), scale)
    injector = CrashInjector(result.built, result.persist_log)
    reports = injector.validate_many()
    bad = [r for r in reports if not r.consistent]

    print("%s (%s):" % (config_name, result.config.description))
    print("  obligation check: %s" % result.consistency.verdict)
    print("  crash points simulated: %d, unrecoverable: %d"
          % (len(reports), len(bad)))
    if bad:
        example = bad[0]
        print("  example: crash after persist #%d — %s"
              % (example.crash_point, example.mismatches[0]))
    print()


def main() -> None:
    print("Swap kernel, crash injected at every persist prefix.\n")
    examine("WB")
    examine("U")
    print("The Unsafe configuration lets an element update reach NVM "
          "before its undo-log entry; after a crash in that window, "
          "recovery cannot restore the pre-transaction value.")


if __name__ == "__main__":
    main()
