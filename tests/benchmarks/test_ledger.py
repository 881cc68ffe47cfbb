"""The one ledger writer: schema, record flag, append-only atomic writes."""

import dataclasses
import json
import shutil
import stat

import pytest

from benchmarks import ledger
from benchmarks.ledger import Session, Timing, timed_rounds

LEDGERS = sorted(ledger.LEDGER_DIR.glob("BENCH_*.json"))


def test_every_committed_ledger_loads():
    assert [path.name for path in LEDGERS] == [
        "BENCH_autotune.json", "BENCH_cluster.json",
        "BENCH_multicore.json", "BENCH_selfperf.json"]
    for path in LEDGERS:
        description, entries = ledger.load(path)
        assert description, path
        assert entries, path
        for entry in entries:
            assert isinstance(entry, ledger.Entry)
            assert entry.host is None or isinstance(entry.host, ledger.Host)


@pytest.fixture
def copy(tmp_path, monkeypatch):
    """A scratch copy of the committed selfperf ledger at 5x3 scale."""
    monkeypatch.setenv("REPRO_BENCH_OPS", "5")
    monkeypatch.setenv("REPRO_BENCH_TXNS", "3")
    shutil.copy(ledger.LEDGER_DIR / "BENCH_selfperf.json", tmp_path)
    return tmp_path / "BENCH_selfperf.json"


def _session(path, **metrics):
    session = Session(directory=path.parent)
    session.record("selfperf", **metrics)
    return session


def test_unset_flag_leaves_the_file_alone(copy, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    before = copy.read_bytes()
    _session(copy, retired_kips=1.0).flush()
    assert copy.read_bytes() == before


@pytest.mark.parametrize("flag", ["1", "true"])
def test_set_flag_appends_one_entry(copy, monkeypatch, flag):
    monkeypatch.setenv("REPRO_BENCH_RECORD", flag)
    copy.chmod(0o644)
    _, before = ledger.load(copy)
    timing = Timing.of([0.3, 0.1, 0.2])
    _session(copy, retired_kips=1.5, retired_kips_timing=timing).flush()
    _, after = ledger.load(copy)
    assert after[:-1] == before
    entry = after[-1]
    assert entry.metrics == {"retired_kips": 1.5,
                             "retired_kips_timing": dataclasses.asdict(timing)}
    assert entry.scale == {"ops_per_txn": 5, "txns": 3}
    assert entry.revision == ledger._revision()
    if shutil.which("git") and (ledger.LEDGER_DIR / ".git").exists():
        assert entry.revision
    assert entry.host.python and entry.host.platform and entry.host.cpus
    assert stat.S_IMODE(copy.stat().st_mode) == 0o644


def test_malformed_flag_is_refused_by_name(copy, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "yes")
    before = copy.read_bytes()
    with pytest.raises(ValueError, match="REPRO_BENCH_RECORD"):
        _session(copy, retired_kips=1.0).flush()
    assert copy.read_bytes() == before


def test_second_flush_keeps_the_first_entry_byte_identical(copy, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    _session(copy, retired_kips=1.0).flush()
    first = copy.read_bytes()
    _session(copy, retired_kips=2.0).flush()
    # Everything up to the close of the first flush's entry is unchanged.
    end = first.rindex(b"\n    }\n") + len(b"\n    }")
    assert copy.read_bytes()[:end] == first[:end]
    assert len(ledger.load(copy)[1]) == len(json.loads(first)["entries"]) + 1


@pytest.mark.parametrize("garbage", [
    "<<<<<<< HEAD\n{}\n=======\n{}\n>>>>>>> branch\n",
    '{"entries": []}',
    '{"description": "d", "entries": [{"date": "2026-01-01"}]}',
])
def test_unparseable_ledger_raises_and_stays(copy, monkeypatch, garbage):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    copy.write_text(garbage, encoding="utf-8")
    with pytest.raises(ValueError, match="BENCH_selfperf.json"):
        _session(copy, retired_kips=1.0).flush()
    assert copy.read_text(encoding="utf-8") == garbage


def test_failed_write_leaves_old_bytes_and_no_temp_file(copy, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    before = copy.read_bytes()
    with pytest.raises(TypeError):
        _session(copy, unserializable=object()).flush()
    assert copy.read_bytes() == before
    assert [path.name for path in copy.parent.iterdir()] == [copy.name]


def test_timing_quartiles():
    assert Timing.of([5, 1, 4, 2, 3]) == Timing(5, 1, 2, 3, 4)
    assert Timing.of([4, 1, 2, 3]) == Timing(4, 1, 1.75, 2.5, 3.25)
    assert Timing.of([0.5]) == Timing(1, 0.5, 0.5, 0.5, 0.5)


def test_timed_rounds_times_every_call():
    calls = []
    timing, result = timed_rounds(lambda: calls.append(1) or len(calls), 4)
    assert (timing.n, result, len(calls)) == (4, 4, 4)
    assert 0 <= timing.best <= timing.q1 <= timing.median <= timing.q3
