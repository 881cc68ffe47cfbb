"""The key-state checks on hand-written EDE sequences.

:func:`repro.analysis.analyze_key_states` is the static verifier of EDE
usage: these cases pin its basic diagnostics on straight-line code.  The
orphan-draining wait model is covered in
``tests/analysis/test_keystate_waits.py``, and the branch- and
loop-sensitive cases by the ``.s`` fixtures in
``tests/analysis/test_fixture_corpus.py``.
"""

import pytest

from repro.analysis import INFO, analyze_key_states
from repro.isa import instructions as ops


def assert_clean(instructions):
    """Raise ``ValueError`` when any warning-or-worse finding exists."""
    findings = [f for f in analyze_key_states(instructions)
                if f.severity != INFO]
    if findings:
        raise ValueError("EDE verification failed:\n%s"
                         % "\n".join(str(f) for f in findings))


class TestDanglingConsumer:
    def test_consumer_without_producer_warns(self):
        findings = analyze_key_states([
            ops.store_ede(1, 2, edk_def=0, edk_use=3, addr=0),
        ])
        assert any("no live producer" in f.message for f in findings)

    def test_consumer_with_producer_clean(self):
        findings = analyze_key_states([
            ops.dc_cvap_ede(0, edk_def=3, edk_use=0, addr=0),
            ops.store_ede(1, 2, edk_def=0, edk_use=3, addr=64),
        ])
        assert findings == []


class TestOverwrittenProducer:
    def test_unconsumed_producer_overwrite_warns(self):
        findings = analyze_key_states([
            ops.dc_cvap_ede(0, edk_def=3, edk_use=0, addr=0),
            ops.dc_cvap_ede(1, edk_def=3, edk_use=0, addr=64),
        ])
        assert any("overwritten" in f.message for f in findings)

    def test_consumed_producer_overwrite_is_fine(self):
        findings = analyze_key_states([
            ops.dc_cvap_ede(0, edk_def=3, edk_use=0, addr=0),
            ops.store_ede(1, 2, edk_def=0, edk_use=3, addr=64),
            ops.dc_cvap_ede(1, edk_def=3, edk_use=0, addr=128),
        ])
        assert [f for f in findings if "overwritten" in f.message] == []

    def test_self_chaining_redefine_is_fine(self):
        """WAIT_KEY-style (k, k) redefinitions chain, not overwrite."""
        findings = analyze_key_states([
            ops.dc_cvap_ede(0, edk_def=3, edk_use=0, addr=0),
            ops.wait_key(3),
        ])
        assert [f for f in findings if "overwritten" in f.message] == []


class TestJoin:
    def test_join_without_uses_warns(self):
        findings = analyze_key_states([ops.join(1, 0, 0)])
        assert any("no use keys" in f.message for f in findings)

    def test_join_with_uses_needs_producers(self):
        findings = analyze_key_states([
            ops.dc_cvap_ede(0, edk_def=1, edk_use=0, addr=0),
            ops.dc_cvap_ede(1, edk_def=2, edk_use=0, addr=64),
            ops.join(3, 1, 2),
            ops.store_ede(1, 2, edk_def=0, edk_use=3, addr=128),
        ])
        assert findings == []


class TestFenceShadowing:
    def test_fence_between_producer_and_consumer_is_informational(self):
        findings = analyze_key_states([
            ops.dc_cvap_ede(0, edk_def=3, edk_use=0, addr=0),
            ops.dsb_sy(),
            ops.store_ede(1, 2, edk_def=0, edk_use=3, addr=64),
        ])
        infos = [f for f in findings if f.severity == INFO]
        assert len(infos) == 1
        assert "already enforced" in infos[0].message

    def test_dmb_st_does_not_shadow(self):
        """DMB ST does not order DC CVAPs architecturally, so no shadow."""
        findings = analyze_key_states([
            ops.dc_cvap_ede(0, edk_def=3, edk_use=0, addr=0),
            ops.dmb_st(),
            ops.store_ede(1, 2, edk_def=0, edk_use=3, addr=64),
        ])
        assert [f for f in findings if f.severity == INFO] == []


class TestAssertClean:
    def test_clean_sequence_passes(self):
        assert_clean([
            ops.dc_cvap_ede(0, edk_def=1, edk_use=0, addr=0),
            ops.store_ede(1, 2, edk_def=0, edk_use=1, addr=64),
        ])

    def test_dirty_sequence_raises(self):
        with pytest.raises(ValueError, match="no live producer"):
            assert_clean([
                ops.store_ede(1, 2, edk_def=0, edk_use=9, addr=0),
            ])

    def test_info_findings_do_not_raise(self):
        assert_clean([
            ops.dc_cvap_ede(0, edk_def=3, edk_use=0, addr=0),
            ops.dsb_sy(),
            ops.store_ede(1, 2, edk_def=0, edk_use=3, addr=64),
        ])


class TestGeneratedCodeIsClean:
    def test_framework_ede_output_verifies(self):
        """Everything the code generator emits must verify cleanly."""
        from repro.workloads import TEST_SCALE, build
        built = build("update", "ede", TEST_SCALE)
        assert_clean(built.trace)

    def test_wait_all_keys_counts_as_consumption(self):
        findings = analyze_key_states([
            ops.dc_cvap_ede(0, edk_def=3, edk_use=0, addr=0),
            ops.wait_all_keys(),
            ops.dc_cvap_ede(1, edk_def=3, edk_use=0, addr=64),
            ops.store_ede(1, 2, edk_def=0, edk_use=3, addr=128),
        ])
        assert [f for f in findings if "overwritten" in f.message] == []
