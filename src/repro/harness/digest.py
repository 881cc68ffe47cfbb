"""The one digest of a simulation result.

:func:`run_digest` is what the golden corpus (``tests/golden``) pins and
what the service's JSON result view reports as ``digest``.  It hashes a
fixed list of fields, so adding a statistic to the program does not
invalidate a committed digest.  A digest is the first 16 hex digits of a
SHA-256.
"""

from __future__ import annotations

import hashlib


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def run_digest(run) -> str:
    """Digest of one simulation's measured outputs."""
    stats = run.stats
    return _sha((
        run.cycles,
        stats.retired,
        stats.retire_stall_wb_full,
        stats.retire_stall_dsb,
        stats.retire_stall_wait,
        stats.dispatch_stall_rob,
        stats.dispatch_stall_iq,
        stats.dispatch_stall_lsq,
        sorted(stats.issue_histogram.items()),
        run.nvm_media_writes,
        run.nvm_coalesced_writes,
        list(run.nvm_pending_samples),
        [(r.seq, r.cycle, r.line_addr, r.kind, r.tag, r.inst_seq)
         for r in run.persist_log],
        run.consistency.verdict,
    ))
