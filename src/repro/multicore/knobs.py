"""How the multi-core environment knobs shape builds and cache keys.

The knobs themselves (``REPRO_INTERLEAVE``, ``REPRO_INTERLEAVE_SEED``,
``REPRO_COHERENCE``, ``REPRO_CORES``) are declared and parsed in
:mod:`repro.harness.envutil`.  Because the interleaver policy/seed shape
built traces and the coherence toggle shapes timing,
:func:`multicore_env_signature` folds them into the trace/result cache
keys (see ``harness/result_cache.py``).
"""

from __future__ import annotations

from repro.harness.envutil import knob


def interleave_seed(scale_seed: int) -> int:
    """The interleaver's RNG seed.

    ``REPRO_INTERLEAVE_SEED`` overrides when non-zero; otherwise the seed
    derives deterministically from the workload scale seed, so the same
    (seed, cores) pair always builds the same interleaving.
    """
    override = knob("REPRO_INTERLEAVE_SEED")
    if override:
        return override
    return (scale_seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF


def multicore_env_signature() -> str:
    """Cache-key component covering every build/run-shaping multicore knob."""
    return "multicore:%s:%d:%d" % (
        knob("REPRO_INTERLEAVE"),
        knob("REPRO_INTERLEAVE_SEED"),
        1 if knob("REPRO_COHERENCE") else 0,
    )
