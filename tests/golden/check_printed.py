"""Check the digests a ``submit --wait`` printed against the corpus.

``python -m repro.service submit ... --wait`` ends each finished simulate
job's ``done`` line with ``digest=<run_digest>``.  Jobs submitted at the
corpus's scale (``--ops 4 --txns 3``, default seed) must print the
committed digest of ``matrix/<workload>/<config>``, or with a core count
of ``multicore/<workload>/<config>/<n>c``::

    python -m tests.golden.check_printed first.out       # 1-core jobs
    python -m tests.golden.check_printed first.out 2     # 2-core jobs

Exits 1 on any mismatch, and when no ``done`` line was printed.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tests.golden.record import load_corpus


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cores = int(argv[1]) if len(argv) > 1 else 1
    golden = load_corpus()
    done = [line.split() for line in Path(argv[0]).read_text().splitlines()
            if line.startswith("done ")]
    bad = 0
    for fields in done:
        workload, config = fields[1], fields[2]
        digest = fields[-1].split("=", 1)[1]
        case = ("matrix/%s/%s" % (workload, config) if cores == 1
                else "multicore/%s/%s/%dc" % (workload, config, cores))
        if golden.get(case) != digest:
            bad += 1
            print("MISMATCH %s: %s != golden %s"
                  % (case, digest, golden.get(case)))
    print("%d/%d printed digests match the corpus" % (len(done) - bad,
                                                       len(done)))
    return 1 if bad or not done else 0


if __name__ == "__main__":
    sys.exit(main())
