"""Multi-core EDE simulation: N coherent pipelines over a shared EDM.

The paper's future-work section sketches execution dependences racing
across cores — hazard-pointer reclamation being the canonical example.
This package models that territory on top of the existing single-core
pipeline:

- :mod:`repro.multicore.layout` — per-core NVM log/commit-record carve-outs
  so N persistent frameworks share one memory image without aliasing.
- :mod:`repro.multicore.interleave` — the deterministic seeded build-time
  interleaver (round-robin / weighted) that linearizes per-core functional
  execution.
- :mod:`repro.multicore.build` — shared-memory multi-framework build
  context producing a :class:`~repro.multicore.build.MultiBuiltWorkload`.
- :mod:`repro.multicore.edm_bus` — the shared Execution Dependence Map
  bus: cross-core EDK produce/consume visibility and wait-key/wait-all
  draining against remote write buffers.
- :mod:`repro.multicore.coherence` — MESI-lite invalidation coherence over
  cache lines (remote-dirty demotion on load, remote invalidation on
  store/clean).
- :mod:`repro.multicore.core` — :class:`~repro.multicore.core.CoherentCore`,
  the per-core pipeline subclass wired to the bus.
- :mod:`repro.multicore.system` — the lockstep driver: one global clock,
  every core stepped per cycle in core-id order, deterministic
  fast-forward over idle gaps.

Determinism is the contract: a scale (seed, core count, interleave
policy) yields bit-identical stats/visibility/persist-log digests across
repeated runs, and N=1 reduces bit-identically to the single-core
pipeline.

Submodules are imported explicitly (not re-exported here) to keep the
package import-cycle-free with the harness.
"""
