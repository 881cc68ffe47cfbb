"""What two in-process simulation results must share to count as equal.

:func:`~repro.harness.digest.run_digest` is what the golden corpus pins,
and it reads a fixed list of fields.  A test holding both results in
memory also compares what the digest leaves out: the workload and
configuration names, the full pipeline statistics (``dispatched``,
``squashes``, ...), the per-core statistics of multi-core runs and the
consistency checker's violation and unresolved lists.
"""

from repro.harness.digest import run_digest


def run_identity(run) -> tuple:
    """Compare with ``==``: equal iff the two runs are bit-identical."""
    return (run_digest(run), run.workload, run.config.name, run.stats,
            run.core_stats, list(run.consistency.violations),
            list(run.consistency.unresolved))
