"""The paper's primary contribution: the Execution Dependence Extension.

Submodules:

* :mod:`repro.core.edk` — Execution Dependence Keys and key allocation.
* :mod:`repro.core.edm` — the Execution Dependence Map with checkpointing.
* :mod:`repro.core.policies` — hardware enforcement policies (IQ, WB, fences).
* :mod:`repro.core.depgraph` — register/memory/execution dependence graphs.
* :mod:`repro.core.calling_convention` — caller/callee-saved EDK discipline.
"""

from repro.core.edk import NUM_KEYS, ZERO_KEY, EdkAllocator
from repro.core.edm import CheckpointedEdm, ExecutionDependenceMap

__all__ = [
    "NUM_KEYS",
    "ZERO_KEY",
    "EdkAllocator",
    "CheckpointedEdm",
    "ExecutionDependenceMap",
]
