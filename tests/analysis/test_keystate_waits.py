"""Write-buffer wait semantics in the key-state analysis.

The pipeline enforces waits at retirement against the *write buffer*:
WAIT_ALL_KEYS drains every older EDE instruction still buffered, and
WAIT_KEY(k) drains every older EDE instruction touching k — not just the
producers currently registered in the EDM.  Round-robin key reuse (the
allocator wraps at 15 keys) therefore drops the EDM edge but stays
dynamically ordered at the next wait.  The analysis mirrors this: an
overwritten-while-pending producer becomes an "orphan" that a later wait
drains, downgrading the overwrite to info and suppressing dead-key.
"""

from repro.analysis import INFO, WARNING, analyze_key_states
from repro.isa import instructions as ops


def _reuse_then(*tail):
    # Key 1 produced, redefined while pending (EDM edge dropped), then tail.
    return [
        ops.dc_cvap_ede(2, edk_def=1, edk_use=0),
        ops.dc_cvap_ede(3, edk_def=1, edk_use=0),
        *tail,
        ops.halt(),
    ]


def _by_check(findings, check):
    return [f for f in findings if f.check == check]


def test_wait_all_keys_downgrades_overwrite_and_drains_orphan():
    findings = analyze_key_states(
        _reuse_then(ops.wait_all_keys(), ops.store(4, 1))
    )
    (overwrite,) = _by_check(findings, "producer-overwrite")
    assert overwrite.severity == INFO
    assert "write buffer" in overwrite.message
    # The wait drains the orphaned first producer AND consumes the live
    # redefinition: nothing is dead.
    assert not _by_check(findings, "dead-key")


def test_wait_key_drains_matching_orphan_only():
    findings = analyze_key_states(
        _reuse_then(ops.wait_key(1), ops.store(4, 1))
    )
    (overwrite,) = _by_check(findings, "producer-overwrite")
    assert overwrite.severity == INFO


def test_no_wait_keeps_overwrite_a_warning():
    findings = analyze_key_states(_reuse_then(ops.store(4, 1)))
    (overwrite,) = _by_check(findings, "producer-overwrite")
    assert overwrite.severity == WARNING
    # Both the orphan and the live redefinition die unconsumed.
    assert len(_by_check(findings, "dead-key")) == 2
