"""Whole-program static analysis for EDE code (Section IX-A tooling).

The paper argues EDKs should be compiler-managed the way registers are,
which implies the same static machinery registers get: a real control-flow
graph, liveness-style dataflow, and use-before-def diagnostics that hold
across branches and loops.  This package provides that machinery:

* :mod:`repro.analysis.cfg` — basic blocks, successors/predecessors,
  dominators and natural-loop detection over any instruction sequence
  (a :class:`~repro.isa.program.Program` with labels, or a flat trace).
* :mod:`repro.analysis.keystate` — a path-sensitive key-state lattice
  analysis: dangling consumers, overwritten producers, dead keys, EDM
  pressure and the other use-before-def checks on EDKs.  The same pass
  answers the one ordering question the prover and the linter share.
* :mod:`repro.analysis.persist` — a static persist-ordering prover that
  classifies each crash-consistency obligation as statically guaranteed,
  statically violated, or indeterminate before any timing simulation runs.
* :mod:`repro.analysis.fences` — a fence-redundancy linter that finds
  ``DSB SY``/``DMB SY`` instructions whose ordering effect is already
  covered by EDE edges (the paper's whole point: fences to eliminate).
* :mod:`repro.analysis.oracle` — the fence autotuner's static oracle:
  the prover and the key-state checks specialized to straight-line code,
  kept per site so a one-site edit is re-proved over its window only.
* :mod:`repro.analysis.report` — aggregation plus text/JSON/SARIF output.

``python -m repro.analysis`` runs everything from the command line; CI
sweeps every workload and fence mode through it.
"""

from repro.analysis.cfg import CFG, BasicBlock, CfgError, build_cfg
from repro.analysis.findings import ERROR, INFO, WARNING, Finding
from repro.analysis.keystate import analyze_key_states

__all__ = [
    "CFG",
    "BasicBlock",
    "CfgError",
    "build_cfg",
    "ERROR",
    "INFO",
    "WARNING",
    "Finding",
    "analyze_key_states",
]
