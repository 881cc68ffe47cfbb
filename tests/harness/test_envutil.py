"""The REPRO_* knob registry: strict parsing, whole-environment checks,
and the rule that nothing under ``src/repro`` reads a knob around it."""

import ast
import pathlib
import re
from pathlib import Path

import pytest

import repro
from repro.harness import configuration, profiling
from repro.harness.envutil import (
    check_env,
    describe_env,
    knob,
    render_env_table,
)
from repro.harness.parallel import run_matrix_parallel
from repro.harness.profiling import maybe_profile
from repro.harness.result_cache import ResultCache
from repro.harness.trace_cache import resolve_trace_cache
from repro.workloads import TEST_SCALE, base as workload_base


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
        monkeypatch.setenv("REPRO_RETRIES", "5")
        assert knob("REPRO_RETRIES") == 5
        monkeypatch.delenv("REPRO_RETRIES")
        assert knob("REPRO_RETRIES") == 2

    def test_env_int_rejects_garbage_and_bounds(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "many")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            knob("REPRO_RETRIES")
        monkeypatch.setenv("REPRO_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            knob("REPRO_RETRIES")

    def test_env_float(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKOFF", "2.5")
        assert knob("REPRO_BACKOFF") == 2.5
        monkeypatch.setenv("REPRO_BACKOFF", "soon")
        with pytest.raises(ValueError, match="REPRO_BACKOFF"):
            knob("REPRO_BACKOFF")
        monkeypatch.setenv("REPRO_BACKOFF", "-0.5")
        with pytest.raises(ValueError, match="REPRO_BACKOFF"):
            knob("REPRO_BACKOFF")

    def test_env_positive_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORES", "3")
        assert knob("REPRO_CORES") == 3
        monkeypatch.setenv("REPRO_CORES", "0")
        with pytest.raises(ValueError, match="REPRO_CORES"):
            knob("REPRO_CORES")


def profile_enabled() -> bool:
    """Whether :func:`maybe_profile` profiles the block it wraps."""
    with maybe_profile("probe", "phase"):
        return profiling._ACTIVE


def cache_enabled() -> bool:
    """Whether a matrix run with ``cache=None`` would use the result cache."""
    from repro.service.scheduler import Scheduler

    return Scheduler(max_workers=1).store is not None


def trace_cache_enabled() -> bool:
    """Whether ``resolve_trace_cache()`` hands out a trace store."""
    return resolve_trace_cache() is not None


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

    def test_choices(self, monkeypatch):
        from repro.multicore.interleave import POLICIES

        (spec,) = [k for k in describe_env() if k.name == "REPRO_INTERLEAVE"]
        assert spec.choices == POLICIES
        monkeypatch.setenv("REPRO_INTERLEAVE", "weighted")
        assert knob("REPRO_INTERLEAVE") == "weighted"
        monkeypatch.setenv("REPRO_INTERLEAVE", "random")
        with pytest.raises(ValueError, match="round_robin/weighted"):
            knob("REPRO_INTERLEAVE")


# --- knobs that used to be parsed by hand, each wrongly ---------------------

def _static_check_false(monkeypatch, tmp_path):
    checked = []
    monkeypatch.setattr("repro.analysis.report.static_check",
                        lambda *args: checked.append(args))
    monkeypatch.setenv("REPRO_STATIC_CHECK", "false")
    workload_base.build("update", "ede", TEST_SCALE)
    assert checked == []


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
    _static_check_false,
    _empty_cache_dir,
    _empty_profile_dir,
    _report_scale("0"),
    _report_scale("many"),
], ids=["static-check-false-is-off", "empty-cache-dir-is-default",
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


class TestEnvRegistry:
    """describe_env() is the authoritative knob list; it must match the
    variables the code mentions, in both directions, and knob() must be
    the only way the code reads them."""

    def test_registry_matches_src_grep(self):
        src_root = pathlib.Path(repro.__file__).resolve().parent
        mentioned = set()
        read_in_code = set()
        for path in sorted(src_root.rglob("*.py")):
            for token in re.findall(r"REPRO_[A-Z_]+",
                                    path.read_text(encoding="utf-8")):
                mentioned.add(token.rstrip("_"))
                # envutil.py declares every knob, so only mentions
                # outside it show that something still reads one.
                if path.name != "envutil.py":
                    read_in_code.add(token.rstrip("_"))
        documented = {knob.name for knob in describe_env()}
        undocumented = mentioned - documented
        # REPRO_FUSION has no reader; the e2e benchmark's inherited-knob
        # check sets it, so it stays registered until that changes.
        stale = documented - read_in_code - {"REPRO_FUSION"}
        assert not undocumented, (
            "REPRO_* knobs read under src/repro but missing from "
            "describe_env(): %s" % sorted(undocumented))
        assert not stale, (
            "describe_env() documents knobs nothing reads: %s"
            % sorted(stale))

    def test_no_reads_around_the_registry(self):
        src_root = pathlib.Path(repro.__file__).resolve().parent
        bypasses = [
            "%s:%d %s" % (path.relative_to(src_root), line, name)
            for path in sorted(src_root.rglob("*.py"))
            if path.name != "envutil.py"
            for line, name in _bypassing_reads(
                path.read_text(encoding="utf-8"))
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
        bad = {"REPRO_TIMEOUT": "soon", "REPRO_CLUSTER_RATE": "fast",
               "REPRO_PROFILE": "maybe", "REPRO_CORES": "0"}
        for name, raw in bad.items():
            monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError) as info:
            check_env()
        for name in bad:
            assert name in str(info.value)

    def test_explicit_argument_no_longer_hides_junk(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_TIMEOUT"):
            run_matrix_parallel(["update"], [configuration("B")],
                                TEST_SCALE, max_workers=1, cache=False,
                                timeout=5)

    def test_render_lists_every_knob(self):
        table = render_env_table()
        for spec in describe_env():
            assert spec.name in table
