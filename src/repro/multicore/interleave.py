"""Deterministic build-time interleaver for multi-core workloads.

Multi-core workloads execute *functionally* at build time, like their
single-core counterparts — but with N per-core instruction streams whose
shared-memory interactions depend on ordering.  Following the operational
style of Zhang et al. (instantaneous instruction execution over an
explicit interleaving), each core's build is expressed as a sequence of
*units* — closures that functionally execute one atomic chunk (a
transaction, or a finer-grained slice for lock/hazard protocols) and emit
its instructions — and this module linearizes them:

- ``round_robin``: cores take strict turns, skipping exhausted streams;
- ``weighted``: a seeded RNG picks the next core, weighted 2:1 toward
  core 0 (the consumer/leader core in the bundled workloads).

The schedule is an explicit input, not ambient state: a workload's
:class:`~repro.workloads.base.Scale` names the policy and its seed, and
the chosen order is a pure function of (policy, seed, unit counts).  So
a scale always builds the same traces — the foundation of the
subsystem's bit-identical determinism contract — and, since the scale
keys every cache, two policies never share a cache entry.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

#: Supported policies (``Scale.interleave`` picks one).
POLICIES = ("round_robin", "weighted")


def schedule_order(counts: Sequence[int], policy: str,
                   seed: int) -> List[int]:
    """Return the core-id sequence in which units run.

    ``counts[i]`` is how many units core ``i`` has; the result contains
    core ``i`` exactly ``counts[i]`` times.
    """
    if policy not in POLICIES:
        raise ValueError("unknown interleave policy %r" % policy)
    remaining = list(counts)
    order: List[int] = []
    if policy == "round_robin":
        while any(remaining):
            for core in range(len(remaining)):
                if remaining[core]:
                    remaining[core] -= 1
                    order.append(core)
        return order
    rng = random.Random(seed)
    weights = [2 if core == 0 else 1 for core in range(len(remaining))]
    while True:
        alive = [core for core in range(len(remaining)) if remaining[core]]
        if not alive:
            return order
        core = rng.choices(alive, weights=[weights[c] for c in alive])[0]
        remaining[core] -= 1
        order.append(core)


def run_interleaved(streams: Sequence[Sequence[Callable[[], None]]],
                    policy: str, seed: int) -> List[int]:
    """Execute per-core unit streams in interleaved order; return the order."""
    order = schedule_order([len(s) for s in streams], policy, seed)
    cursors = [0] * len(streams)
    for core in order:
        streams[core][cursors[core]]()
        cursors[core] += 1
    return order
