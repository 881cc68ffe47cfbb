"""Tests for the deterministic network fault-injection proxy.

A tiny echo HTTP server sits behind a :class:`FaultProxy`; every test
drives real TCP through the proxy and asserts on what the *client*
observes — refusal, latency, a mid-body reset, a truncated-but-clean
close, a one-way partition — plus the proxy's exact firing counts.
"""

import asyncio
import time

import pytest

from repro.chaos.netproxy import (
    ENV_VAR,
    FaultProxy,
    NetFaultPlan,
    NetFaultSpec,
    ThreadedFaultProxy,
)
from repro.service.http import BaseHttpServer, ThreadedHttpServer, UpstreamPool

#: Fat payload so truncation budgets land mid-body, past the ~90-byte
#: response head.
_ECHO_PAYLOAD = "x" * 400


class _EchoServer(BaseHttpServer):
    async def _route(self, method, target, headers, body, writer):
        self._respond(writer, 200, {"path": target, "echo": _ECHO_PAYLOAD,
                                    "len": len(body)})


class _ThreadedEcho(ThreadedHttpServer):
    thread_name = "repro-echo"

    def _build(self) -> _EchoServer:
        return _EchoServer(**self._kwargs)


@pytest.fixture()
def echo():
    with _ThreadedEcho() as server:
        yield server


def _proxy(echo, *faults, seed=0):
    plan = NetFaultPlan(faults=list(faults), seed=seed)
    return ThreadedFaultProxy(upstream_host="127.0.0.1",
                              upstream_port=echo.port, plan=plan)


def _fetch(port, path="/ping", timeout=5.0):
    # A pool that was never opened closes its connection after one
    # exchange.
    return asyncio.run(UpstreamPool("127.0.0.1", port).fetch(
        "GET", path, timeout=timeout))


class TestPassThrough:
    def test_clean_relay_is_transparent(self, echo):
        with _proxy(echo) as proxied:
            status, _, body = _fetch(proxied.port, "/hello")
            stats = proxied.stats()
        direct_status, _, direct_body = _fetch(echo.port, "/hello")
        assert status == direct_status == 200
        assert body == direct_body
        assert stats["connections"] == 1
        assert all(stats[action] == 0
                   for action in ("refuse", "reset", "truncate", "blackhole"))


class TestRefuse:
    def test_first_connection_refused_then_clean(self, echo):
        with _proxy(echo, NetFaultSpec(action="refuse", times=1)) as proxied:
            with pytest.raises((ConnectionError, OSError)):
                _fetch(proxied.port)
            status, _, _ = _fetch(proxied.port)
            assert status == 200
            assert proxied.stats()["refuse"] == 1

    def test_unlimited_refusal(self, echo):
        with _proxy(echo, NetFaultSpec(action="refuse", times=-1)) as proxied:
            for _ in range(3):
                with pytest.raises((ConnectionError, OSError)):
                    _fetch(proxied.port)
            assert proxied.stats()["refuse"] == 3

    def test_after_conns_arms_late(self, echo):
        spec = NetFaultSpec(action="refuse", times=1, after_conns=1)
        with _proxy(echo, spec) as proxied:
            assert _fetch(proxied.port)[0] == 200      # conn 0: clean
            with pytest.raises((ConnectionError, OSError)):
                _fetch(proxied.port)                   # conn 1: refused
            assert _fetch(proxied.port)[0] == 200      # budget spent


class TestLatency:
    def test_fixed_delay_then_clean(self, echo):
        spec = NetFaultSpec(action="latency", times=1, delay_s=0.3)
        with _proxy(echo, spec) as proxied:
            start = time.monotonic()
            assert _fetch(proxied.port)[0] == 200
            slow = time.monotonic() - start
            start = time.monotonic()
            assert _fetch(proxied.port)[0] == 200
            fast = time.monotonic() - start
        assert slow >= 0.3
        assert fast < 0.3

    def test_jitter_is_seed_deterministic(self):
        plan = NetFaultPlan(
            faults=[NetFaultSpec(action="latency", times=2, jitter_s=0.5)],
            seed=7)
        first = FaultProxy("localhost", 1, plan=plan)
        second = FaultProxy("localhost", 1, plan=plan)
        for conn in range(2):
            (_, rng_a), = first._claim_faults(conn)
            (_, rng_b), = second._claim_faults(conn)
            assert rng_a.uniform(0, 0.5) == rng_b.uniform(0, 0.5)
        # Budget of 2 is spent: the third connection claims nothing.
        assert first._claim_faults(2) == []
        assert first.fired["latency"] == 2


class TestCuts:
    def test_truncate_is_a_clean_short_close(self, echo):
        # 120 bytes covers the response head and cuts mid-body, so the
        # client sees a Content-Length it can never satisfy.  The HTTP
        # client must surface that as a transport error (OSError), not
        # hand back a short body.
        spec = NetFaultSpec(action="truncate", times=1, after_bytes=120,
                            direction="s2c")
        with _proxy(echo, spec) as proxied:
            with pytest.raises(OSError, match="truncated"):
                _fetch(proxied.port)
            assert proxied.stats()["truncate"] == 1
            assert _fetch(proxied.port)[0] == 200

    def test_reset_aborts_mid_body(self, echo):
        spec = NetFaultSpec(action="reset", times=1, after_bytes=0,
                            direction="s2c")
        with _proxy(echo, spec) as proxied:
            with pytest.raises((ConnectionError, OSError)):
                _fetch(proxied.port)
            assert proxied.stats()["reset"] == 1


class TestBlackhole:
    @pytest.mark.parametrize("direction", ["c2s", "s2c"])
    def test_one_way_partition_times_out(self, echo, direction):
        spec = NetFaultSpec(action="blackhole", times=1,
                            direction=direction)
        with _proxy(echo, spec) as proxied:
            with pytest.raises(asyncio.TimeoutError):
                _fetch(proxied.port, timeout=0.5)
            assert proxied.stats()["blackhole"] == 1
            assert _fetch(proxied.port)[0] == 200


class TestPlanSwap:
    def test_set_plan_lifts_faults_mid_run(self, echo):
        with _proxy(echo, NetFaultSpec(action="refuse", times=-1)) as proxied:
            with pytest.raises((ConnectionError, OSError)):
                _fetch(proxied.port)
            proxied.set_plan(NetFaultPlan(faults=[]))
            assert _fetch(proxied.port)[0] == 200


class TestPlanSerialization:
    def test_json_roundtrip(self):
        plan = NetFaultPlan(
            faults=[NetFaultSpec(action="latency", times=3, delay_s=0.1,
                                 jitter_s=0.2),
                    NetFaultSpec(action="truncate", after_bytes=99,
                                 direction="c2s")],
            seed=42)
        assert NetFaultPlan.from_json(plan.to_json()) == plan

    def test_from_env_inline_and_path(self, tmp_path):
        plan = NetFaultPlan(faults=[NetFaultSpec(action="refuse")], seed=1)
        environ = {ENV_VAR: plan.to_json()}
        assert NetFaultPlan.from_env(environ) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert NetFaultPlan.from_env({ENV_VAR: str(path)}) == plan
        assert NetFaultPlan.from_env({}) is None

    def test_installed_context_manager(self):
        plan = NetFaultPlan(faults=[], seed=9)
        environ = {}
        with plan.installed(environ):
            assert NetFaultPlan.from_env(environ) == plan
        assert ENV_VAR not in environ

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError, match="unknown network fault"):
            NetFaultSpec(action="explode")
        with pytest.raises(ValueError, match="direction"):
            NetFaultSpec(action="reset", direction="up")
        with pytest.raises(ValueError, match="times"):
            NetFaultSpec(action="refuse", times=0)
