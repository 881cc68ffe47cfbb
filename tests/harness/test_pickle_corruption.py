"""PickleStore under damage: every corruption is a miss, never an error.

Satellite of the resilience work: the result cache and the report cache
share :class:`~repro.harness.result_cache.PickleStore`, so both must
self-heal — discard and miss — for every class of on-disk damage:
truncated entries, validly framed payloads that are not pickles, valid
pickles of the wrong type, bit flips (caught by the CRC-32 frame), and writers
racing the atomic rename.
"""

import pickle
import threading

import pytest

from repro.chaos import bitflip_file, truncate_file
from repro.harness.result_cache import (
    FRAME_HEADER_BYTES,
    CorruptEntryError,
    PickleStore,
    ReportCache,
    ResultCache,
    frame_payload,
    unframe_payload,
)

KEY = "ab" * 32


def result_store(tmp_path):
    return ResultCache(tmp_path / "results")


def report_store(tmp_path):
    return ReportCache(tmp_path / "reports")


#: (factory, bytes that are valid *below* the frame but not a pickle,
#:  bytes that unpickle into the wrong type for the store)
CASES = [
    (result_store,
     b"definitely not a pickle",
     pickle.dumps({"wrong": "type"})),
    (report_store,
     b"definitely not a pickle",
     pickle.dumps(["wrong", "type"])),
]


def store_something(store):
    """Write a syntactically valid entry through the real store path."""
    # Neither store type-checks on store(), only on load() — which is the
    # point: damage and wrong types must be caught at read time.
    store.store(KEY, {"payload": list(range(100))})
    return store._path(KEY)


class TestFraming:
    def test_roundtrip(self):
        assert unframe_payload(frame_payload(b"hello")) == b"hello"

    def test_too_short_rejected(self):
        with pytest.raises(CorruptEntryError, match="shorter"):
            unframe_payload(b"RP")

    def test_bad_magic_rejected(self):
        blob = b"XXXX" + frame_payload(b"hello")[4:]
        with pytest.raises(CorruptEntryError, match="magic"):
            unframe_payload(blob)

    def test_crc_mismatch_rejected(self):
        blob = bytearray(frame_payload(b"hello"))
        blob[-1] ^= 0x01
        with pytest.raises(CorruptEntryError, match="checksum"):
            unframe_payload(bytes(blob))


@pytest.mark.parametrize("factory,bad_payload,wrong_type_payload", CASES,
                         ids=["result", "report"])
class TestDamageIsAMiss:
    def test_truncated_to_partial_header(self, tmp_path, factory,
                                         bad_payload, wrong_type_payload):
        store = factory(tmp_path)
        path = store_something(store)
        path.write_bytes(path.read_bytes()[:FRAME_HEADER_BYTES - 2])
        assert store.load(KEY) is None
        assert not path.exists()  # discarded, not left to fail again

    def test_truncated_mid_payload(self, tmp_path, factory,
                                   bad_payload, wrong_type_payload):
        store = factory(tmp_path)
        path = store_something(store)
        truncate_file(path, fraction=0.6)
        assert store.load(KEY) is None
        assert not path.exists()

    def test_single_bit_flip(self, tmp_path, factory,
                             bad_payload, wrong_type_payload):
        import random

        store = factory(tmp_path)
        path = store_something(store)
        bitflip_file(path, random.Random(1234))
        assert store.load(KEY) is None
        assert not path.exists()

    def test_valid_frame_invalid_pickle(self, tmp_path, factory,
                                        bad_payload, wrong_type_payload):
        # The frame checks out (CRC over the damaged payload), so only the
        # deserializer can object — and its failure must still be a miss.
        store = factory(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        path = store._path(KEY)
        path.write_bytes(frame_payload(bad_payload))
        assert store.load(KEY) is None
        assert not path.exists()

    def test_valid_pickle_wrong_type(self, tmp_path, factory,
                                     bad_payload, wrong_type_payload):
        # A well-formed entry holding the wrong object (key collision,
        # tampering) must not be returned as a result/report.
        store = factory(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        path = store._path(KEY)
        path.write_bytes(frame_payload(wrong_type_payload))
        assert store.load(KEY) is None
        assert not path.exists()

    def test_damage_counts_as_miss_not_hit(self, tmp_path, factory,
                                           bad_payload, wrong_type_payload):
        store = factory(tmp_path)
        path = store_something(store)
        truncate_file(path, fraction=0.5)
        store.load(KEY)
        assert store.hits == 0 and store.misses == 1


class TestConcurrentWriters:
    def test_writer_racing_atomic_rename(self, tmp_path):
        """Concurrent stores to one key: readers see *some* intact value.

        The atomic temp-file + ``os.replace`` protocol means a reader can
        never observe a half-written entry, no matter how the writers
        interleave — loads either hit a complete frame or miss.
        """
        # A bare PickleStore: same atomic-write machinery as both caches,
        # without the RunResult type gate (we store plain dicts here).
        store = PickleStore(tmp_path / "race")
        errors = []
        stop = threading.Event()

        def writer(tag):
            try:
                for n in range(50):
                    store.store(KEY, {"writer": tag, "n": n})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    value = store.load(KEY)
                    assert value is None or set(value) == {"writer", "n"}
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # The survivor is one of the writers' final values, fully intact.
        final = store.load(KEY)
        assert final is not None and final["n"] == 49

    def test_stale_tmp_file_does_not_break_the_store(self, tmp_path):
        """A crashed writer's leftover temp file is inert."""
        store = PickleStore(tmp_path / "stale")
        store.root.mkdir(parents=True)
        (store.root / "leftover.tmp").write_bytes(b"half a wri")
        store.store(KEY, {"v": 1})
        assert store.load(KEY) == {"v": 1}
