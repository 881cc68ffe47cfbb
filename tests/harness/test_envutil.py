"""The REPRO_* knob registry: strict parsing, whole-environment checks,
and the rule that nothing under ``src/repro`` or the top-level
``benchmarks/*.py`` reads a knob around it."""

import ast
import pathlib
import re
from pathlib import Path

import pytest

from repro.harness import configuration, profiling
from repro.harness.envutil import (
    _RETIRED,
    check_env,
    describe_env,
    knob,
    render_env_table,
)
from repro.harness.parallel import run_matrix_parallel
from repro.harness.profiling import maybe_profile
from repro.harness.result_cache import ResultCache
from repro.harness.trace_cache import resolve_caches
from repro.workloads import TEST_SCALE


class TestEnvFlag:
    @pytest.mark.parametrize("raw", ["1", "true", "TRUE", "True", " 1 "])
    def test_true_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        assert knob("REPRO_PROFILE") is True

    @pytest.mark.parametrize("raw", ["0", "false", "FALSE", "False"])
    def test_false_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RESULT_CACHE", raw)
        assert knob("REPRO_RESULT_CACHE") is False

    def test_unset_and_empty_mean_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert knob("REPRO_RESULT_CACHE") is True
        assert knob("REPRO_PROFILE") is False
        monkeypatch.setenv("REPRO_RESULT_CACHE", "")
        assert knob("REPRO_RESULT_CACHE") is True

    @pytest.mark.parametrize("raw", ["yes", "no", "2", "on", "off", "enable"])
    def test_junk_is_rejected_loudly(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PROFILE", raw)
        with pytest.raises(ValueError, match="REPRO_PROFILE"):
            knob("REPRO_PROFILE")

    def test_error_names_value_and_spellings(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "yes")
        with pytest.raises(ValueError, match=r"0/1/true/false.*'yes'"):
            knob("REPRO_PROFILE")


class TestNumericKnobs:
    def test_env_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "5")
        assert knob("REPRO_PARALLEL") == 5
        monkeypatch.delenv("REPRO_PARALLEL")
        assert knob("REPRO_PARALLEL") is None

    def test_env_int_rejects_garbage_and_bounds(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "many")
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            knob("REPRO_PARALLEL")
        monkeypatch.setenv("REPRO_PARALLEL", "-1")
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            knob("REPRO_PARALLEL")

    def test_env_float(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_RATE", "2.5")
        assert knob("REPRO_CLUSTER_RATE") == 2.5
        monkeypatch.setenv("REPRO_CLUSTER_RATE", "soon")
        with pytest.raises(ValueError, match="REPRO_CLUSTER_RATE"):
            knob("REPRO_CLUSTER_RATE")
        monkeypatch.setenv("REPRO_CLUSTER_RATE", "-0.5")
        with pytest.raises(ValueError, match="REPRO_CLUSTER_RATE"):
            knob("REPRO_CLUSTER_RATE")

    def test_env_positive_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_BURST", "3")
        assert knob("REPRO_CLUSTER_BURST") == 3
        monkeypatch.setenv("REPRO_CLUSTER_BURST", "0")
        with pytest.raises(ValueError, match="REPRO_CLUSTER_BURST"):
            knob("REPRO_CLUSTER_BURST")


def profile_enabled() -> bool:
    """Whether :func:`maybe_profile` profiles the block it wraps."""
    with maybe_profile("probe", "phase"):
        return profiling._ACTIVE


def cache_enabled() -> bool:
    """Whether a matrix run with ``cache=None`` would use the result cache."""
    from repro.service.scheduler import Scheduler

    return Scheduler(max_workers=1).store is not None


def trace_cache_enabled() -> bool:
    """Whether ``resolve_caches()`` hands out a trace directory."""
    return resolve_caches()[1] is not None


class TestHarnessKnobsShareTheParser:
    """The harness consumers of every flag reject junk, not guess."""

    @pytest.fixture(autouse=True)
    def _profile_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path))

    @pytest.mark.parametrize("name,reader", [
        ("REPRO_RESULT_CACHE", cache_enabled),
        ("REPRO_TRACE_CACHE", trace_cache_enabled),
        ("REPRO_PROFILE", profile_enabled),
    ])
    def test_junk_rejected(self, monkeypatch, name, reader):
        monkeypatch.setenv(name, "maybe")
        with pytest.raises(ValueError, match=name):
            reader()

    @pytest.mark.parametrize("name,reader,default", [
        ("REPRO_RESULT_CACHE", cache_enabled, True),
        ("REPRO_TRACE_CACHE", trace_cache_enabled, True),
        ("REPRO_PROFILE", profile_enabled, False),
    ])
    def test_spellings_and_default(self, monkeypatch, name, reader, default):
        monkeypatch.delenv(name, raising=False)
        assert reader() is default
        monkeypatch.setenv(name, "true")
        assert reader() is True
        monkeypatch.setenv(name, "false")
        assert reader() is False


class TestEnvStr:
    def test_set_unset_empty(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_HOST", "0.0.0.0")
        assert knob("REPRO_SERVICE_HOST") == "0.0.0.0"
        monkeypatch.setenv("REPRO_SERVICE_HOST", "")
        assert knob("REPRO_SERVICE_HOST") == "127.0.0.1"
        monkeypatch.delenv("REPRO_SERVICE_HOST")
        assert knob("REPRO_SERVICE_HOST") == "127.0.0.1"


# --- knobs that used to be parsed by hand, each wrongly ---------------------

def _empty_cache_dir(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert ResultCache().root == Path(".benchmarks", "cache")


def _empty_profile_dir(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_PROFILE", "1")
    monkeypatch.setenv("REPRO_PROFILE_DIR", "")
    with maybe_profile("probe", "build"):
        pass
    assert sorted(p.name for p in tmp_path.iterdir()) == [".benchmarks"]
    assert (tmp_path / ".benchmarks" / "profile" / "probe.build.prof").exists()


def _report_scale(raw):
    def check(monkeypatch, tmp_path):
        from repro.harness import reporting

        monkeypatch.setattr(reporting, "full_report", lambda scale: "")
        monkeypatch.setenv("REPRO_BENCH_OPS", raw)
        with pytest.raises(ValueError, match="REPRO_BENCH_OPS"):
            reporting.main()
    return check


@pytest.mark.parametrize("check", [
    _empty_cache_dir,
    _empty_profile_dir,
    _report_scale("0"),
    _report_scale("many"),
], ids=["empty-cache-dir-is-default",
        "empty-profile-dir-is-default", "report-rejects-zero-ops",
        "report-names-junk-ops"])
def test_formerly_hand_parsed_knob(monkeypatch, tmp_path, check):
    check(monkeypatch, tmp_path)


# --- the registry -----------------------------------------------------------

def _bypassing_reads(source: str):
    """``(line, name)`` for each read of a ``REPRO_*`` variable through
    ``os.environ``, ``os.getenv`` or an ``env_*`` parser; a name may be
    spelled out or held in a module-level string constant.  Writes
    (``os.environ[NAME] = ...``) are not reads."""
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets if isinstance(target, ast.Name)
    }

    def repro_name(expr):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            value = expr.value
        elif isinstance(expr, ast.Name):
            value = constants.get(expr.id, "")
        else:
            return None
        return value if value.startswith("REPRO_") else None

    def is_environ(expr):
        return ast.unparse(expr) == "os.environ"

    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = ast.unparse(node.func)
            if (func in ("os.environ.get", "os.getenv")
                    or func.split(".")[-1].startswith("env_")):
                key = node.args[0]
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Load) and is_environ(node.value)):
            key = node.slice
        elif (isinstance(node, ast.Compare)
              and any(is_environ(c) for c in node.comparators)):
            key = node.left
        name = repro_name(key) if key is not None else None
        if name:
            yield node.lineno, name


def _scanned_sources():
    """Every file that may read a knob: ``src/repro`` and the top-level
    benchmark modules (``benchmarks/e2e`` has its own environment
    rules), as ``(path relative to the repo root, text)``."""
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    paths = (sorted((repo_root / "src" / "repro").rglob("*.py"))
             + sorted((repo_root / "benchmarks").glob("*.py")))
    return [(path.relative_to(repo_root), path.read_text(encoding="utf-8"))
            for path in paths]


class TestEnvRegistry:
    """describe_env() is the authoritative knob list; it must match the
    variables the code mentions, in both directions, and knob() must be
    the only way the code reads them."""

    def test_registry_matches_src_grep(self):
        mentioned = set()
        read_in_code = set()
        for path, text in _scanned_sources():
            for token in re.findall(r"REPRO_[A-Z_]+", text):
                # envutil.py declares every knob and lists the retired
                # ones, so only mentions outside it show that something
                # still reads one.
                if path.name != "envutil.py":
                    read_in_code.add(token.rstrip("_"))
                elif token.rstrip("_") not in _RETIRED:
                    mentioned.add(token.rstrip("_"))
        mentioned |= read_in_code
        documented = {knob.name for knob in describe_env()}
        undocumented = mentioned - documented
        # REPRO_FUSION has no reader; the e2e benchmark's inherited-knob
        # check sets it, so it stays registered until that changes.
        stale = documented - read_in_code - {"REPRO_FUSION"}
        assert not undocumented, (
            "REPRO_* knobs read under src/repro or benchmarks but missing from "
            "describe_env(): %s" % sorted(undocumented))
        assert not stale, (
            "describe_env() documents knobs nothing reads: %s"
            % sorted(stale))

    def test_no_reads_around_the_registry(self):
        bypasses = [
            "%s:%d %s" % (path, line, name)
            for path, text in _scanned_sources()
            if path.name != "envutil.py"
            for line, name in _bypassing_reads(text)
        ]
        assert not bypasses, (
            "read these through repro.harness.envutil.knob(): %s"
            % bypasses)

    def test_bypass_detector_sees_every_read_form(self):
        source = (
            "import os\n"
            "VAR = 'REPRO_A'\n"
            "os.environ.get('REPRO_B')\n"
            "os.getenv(VAR)\n"
            "os.environ['REPRO_C']\n"
            "'REPRO_D' in os.environ\n"
            "env_flag('REPRO_E')\n"
            "os.environ['REPRO_F'] = '1'\n"
            "os.environ.get('HOME')\n"
        )
        names = sorted(name for _, name in _bypassing_reads(source))
        assert names == ["REPRO_A", "REPRO_B", "REPRO_C", "REPRO_D",
                         "REPRO_E"]

    def test_knob_shapes(self):
        types = {"flag": bool, "int": int, "float": float, "str": str,
                 "json": str}
        for spec in describe_env():
            assert spec.name.startswith("REPRO_")
            assert spec.kind in types, spec
            assert spec.description.endswith("."), spec
            if spec.default is not None:
                assert type(spec.default) is types[spec.kind], spec
            if spec.minimum is not None:
                assert spec.kind in ("int", "float"), spec
                assert spec.default is None or spec.default >= spec.minimum

    def test_defaults_parse_clean(self, monkeypatch):
        for spec in describe_env():
            monkeypatch.delenv(spec.name, raising=False)
        check_env()
        for spec in describe_env():
            assert knob(spec.name) == spec.default

    def test_check_env_names_every_bad_knob(self, monkeypatch):
        bad = {"REPRO_PARALLEL": "lots", "REPRO_CLUSTER_RATE": "fast",
               "REPRO_PROFILE": "maybe", "REPRO_CLUSTER_BURST": "0"}
        for name, raw in bad.items():
            monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError) as info:
            check_env()
        for name in bad:
            assert name in str(info.value)

    def test_explicit_argument_no_longer_hides_junk(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "lots")
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            run_matrix_parallel(["update"], [configuration("B")],
                                TEST_SCALE, max_workers=1, cache=False)

    def test_retired_names(self):
        assert set(_RETIRED) == {
            "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_BACKOFF",
            "REPRO_AUTOTUNE_BUDGET", "REPRO_AUTOTUNE_VALIDATE",
            "REPRO_SERVICE_QUEUE_DEPTH", "REPRO_DRAIN_TIMEOUT",
            "REPRO_CLUSTER_SHARDS", "REPRO_CLUSTER_PROBE_INTERVAL",
            "REPRO_BREAKER_THRESHOLD", "REPRO_BREAKER_RESET",
            "REPRO_JOURNAL_FSYNC_INTERVAL", "REPRO_JOURNAL_COMPACT_BYTES",
            "REPRO_REQUEST_DEADLINE", "REPRO_SHM", "REPRO_HEDGE_DELAY",
            "REPRO_PROXY_TIMEOUT", "REPRO_INTERLEAVE",
            "REPRO_INTERLEAVE_SEED", "REPRO_COHERENCE", "REPRO_STATIC_CHECK",
            "REPRO_CORES"}
        assert not set(_RETIRED) & {spec.name for spec in describe_env()}
        assert len(describe_env()) == 17

    @pytest.mark.parametrize("name", _RETIRED)
    def test_set_retired_name_is_refused(self, monkeypatch, name):
        monkeypatch.setenv(name, "30")
        with pytest.raises(ValueError, match="%s is retired" % name):
            check_env()
        monkeypatch.setenv(name, "")
        check_env()

    @pytest.mark.parametrize("module", [
        "repro.service.__main__", "repro.cluster.__main__",
        "repro.analysis.__main__"])
    def test_clis_refuse_a_retired_name(self, monkeypatch, capsys, module):
        import importlib

        main = importlib.import_module(module).main
        for name in _RETIRED:
            monkeypatch.setenv(name, "30")
            with pytest.raises(SystemExit) as info:
                main(["--env"])
            assert info.value.code == 2
            assert "%s is retired" % name in capsys.readouterr().err
            monkeypatch.delenv(name)

    def test_render_lists_every_knob(self):
        table = render_env_table()
        for spec in describe_env():
            assert spec.name in table


# --- where the retired knobs' values are set now ----------------------------

def _default(entry, name):
    import importlib
    import inspect

    module, _, attr = entry.partition(":")
    target = getattr(importlib.import_module(module), attr)
    return inspect.signature(target).parameters[name].default


def _flag(module, argv):
    import importlib

    cli = importlib.import_module(module)
    if argv[0] == "optimize":
        return vars(cli._build_optimize_parser().parse_args(argv[1:]))
    return vars(cli._build_parser().parse_args(argv))


# The supervisor, breaker and drain defaults are checked in their own
# suites (test_supervisor, test_breaker, test_drain).
@pytest.mark.parametrize("entry,name,expected", [
    ("repro.analysis.autotune:autotune_workload", "validate", True),
    ("repro.cluster.local:LocalCluster", "queue_depth", 64),
    ("repro.cluster.local:LocalCluster", "shards", 2),
    ("repro.cluster.coordinator:ClusterCoordinator", "probe_interval_s", 1.0),
    ("repro.cluster.coordinator:ClusterCoordinator",
     "journal_fsync_interval_s", 0.0),
    ("repro.cluster.coordinator:ClusterCoordinator",
     "journal_compact_bytes", 1 << 20),
    ("repro.cluster.journal:CoordinatorJournal", "fsync_interval_s", 0.0),
    ("repro.cluster.journal:CoordinatorJournal", "compact_bytes", 1 << 20),
    ("repro.service.client:ServiceClient", "deadline_s", None),
])
def test_retired_knob_argument_defaults(entry, name, expected):
    assert _default(entry, name) == expected


@pytest.mark.parametrize("module,argv,dest,expected", [
    ("repro.analysis.__main__", ["optimize"], "budget", 64),
    ("repro.service.__main__", ["serve"], "queue_depth", 64),
    ("repro.cluster.__main__", ["up"], "shards", 2),
    ("repro.cluster.__main__", ["up"], "queue_depth", 64),
    ("repro.cluster.__main__", ["coordinator", "--shard", "h:1"],
     "probe_interval", 1.0),
])
def test_retired_knob_flag_defaults(module, argv, dest, expected):
    assert _flag(module, argv)[dest] == expected
