#!/usr/bin/env python3
"""Section VIII: eliminating the hazard-pointer announcement fence.

The announcement sequence (Figure 12) needs the second load ordered after
the announcement store — a load-store ordering that today costs a full
fence (DMB SY).  EDE expresses it as:

    str (1, 0), x3, [x2]   ; announce      (EDK #1 producer)
    ldr (0, 1), x4, [x1]   ; validate load (EDK #1 consumer)

Run:  python examples/hazard_pointers.py
"""

from repro.harness.experiments import hazard_pointer_experiment
from repro.workloads import Scale


def main() -> None:
    print(__doc__)
    result = hazard_pointer_experiment(Scale(ops_per_txn=50, txns=10))

    print("Simulated cores: %d (hazard_pointer_experiment(..., cores=1) "
          "reproduces the uncontended approximation)\n" % result.cores)
    labels = {
        "B": "DMB SY full fence (Figure 12)",
        "IQ": "EDE, IQ hardware",
        "WB": "EDE, WB hardware",
        "U": "no ordering (incorrect reference)",
    }
    print("%-4s %-38s %10s %8s" % ("cfg", "ordering mechanism", "cycles",
                                   "vs fence"))
    for name in ("B", "IQ", "WB", "U"):
        print("%-4s %-38s %10d %8.3f"
              % (name, labels[name], result.cycles[name],
                 result.normalized[name]))

    saved = 1 - result.normalized["WB"]
    floor = 1 - result.normalized["U"]
    print("\nEDE removes %.0f%% of the announcement cost; dropping the "
          "ordering entirely (incorrect) recovers %.0f%%.  On contended "
          "multi-core runs the unordered variant can even lose to EDE: "
          "the dependences double as store-flow control."
          % (100 * saved, 100 * floor))


if __name__ == "__main__":
    main()
