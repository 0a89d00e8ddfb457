"""Connectivity probing: agent protocol, responder handshake, cache
freshness and failure behavior."""

import socket
import threading
import time

import pytest

from b4ns import probe
from b4ns.errors import NamespaceUnavailable
from b4ns.probe import (
    DEFAULT_PERIOD,
    FRESHNESS_FACTOR,
    MAGIC,
    PROBE_PORT_OFFSET,
    ProbeCache,
    start_agent,
)

PORT_A = 20080
PORT_B = 20081


@pytest.fixture
def agent(tmp_path):
    handle = start_agent(None, [PORT_A], str(tmp_path / "probe.sock"),
                         bind_addr="127.0.0.2")
    yield handle
    handle.stop()


class FrozenClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestAgent:
    def test_ping_reports_ports(self, agent):
        resp = agent.request({"op": "ping"})
        assert resp["ok"] and resp["ports"] == [PORT_A]

    def test_probe_reaches_own_responder(self, agent):
        resp = agent.request({"op": "probe", "dst": "127.0.0.2", "port": PORT_A})
        assert resp["reachable"] is True

    def test_probe_unreachable_destination(self, agent):
        resp = agent.request({"op": "probe", "dst": "127.0.0.3", "port": PORT_A})
        assert resp["reachable"] is False

    def test_listener_without_handshake_is_not_reachable(self, agent):
        """A plain TCP listener on the probe port must not count: only the
        magic handshake proves a peer responder."""
        impostor = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        impostor.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        impostor.bind(("127.0.0.3", PORT_B + PROBE_PORT_OFFSET))
        impostor.listen(1)

        def bogus():
            conn, _ = impostor.accept()
            conn.sendall(b"HTTP/1.0 200 OK\r\n\r\n"[:len(MAGIC)])
            conn.close()

        t = threading.Thread(target=bogus, daemon=True)
        t.start()
        resp = agent.request({"op": "probe", "dst": "127.0.0.3", "port": PORT_B})
        assert resp["reachable"] is False
        impostor.close()

    def test_agent_refuses_to_start_with_bad_control_path(self):
        with pytest.raises(NamespaceUnavailable):
            start_agent(None, [PORT_A], "/nonexistent-dir/probe.sock",
                        startup_timeout=3.0)

    def test_agent_refuses_bad_netns(self, tmp_path):
        with pytest.raises(NamespaceUnavailable):
            start_agent("/proc/1/ns/nonexistent", [PORT_A],
                        str(tmp_path / "p.sock"), startup_timeout=3.0)


class TestProbeCache:
    def test_cold_cache_answers_unknown_then_learns(self, agent):
        cache = ProbeCache(agent, src="test")
        assert cache.reachable("127.0.0.2", PORT_A) is None  # cold: unknown
        cache.refresh_all()
        assert cache.reachable("127.0.0.2", PORT_A) is True

    def test_negative_result_is_cached(self, agent):
        cache = ProbeCache(agent, src="test")
        cache.register_pair("127.0.0.3", PORT_A)
        cache.refresh_all()
        assert cache.reachable("127.0.0.3", PORT_A) is False

    def test_staleness_window(self, agent):
        clock = FrozenClock()
        cache = ProbeCache(agent, src="test", period=5.0, time_fn=clock)
        cache.register_pair("127.0.0.2", PORT_A)
        cache.refresh_all()
        assert cache.reachable("127.0.0.2", PORT_A) is True
        clock.advance(5.0 * FRESHNESS_FACTOR - 0.01)
        assert cache.reachable("127.0.0.2", PORT_A) is True
        clock.advance(0.02)  # now past the freshness horizon
        assert cache.reachable("127.0.0.2", PORT_A) is None
        cache.refresh_all()  # queued stale pair gets re-probed
        assert cache.reachable("127.0.0.2", PORT_A) is True

    def test_freshness_is_three_periods(self):
        cache = ProbeCache(None, period=2.0)
        assert cache.freshness == pytest.approx(6.0)
        assert DEFAULT_PERIOD == pytest.approx(5.0)

    def test_dead_agent_yields_unknown(self, agent):
        cache = ProbeCache(agent, src="test")
        cache.register_pair("127.0.0.2", PORT_A)
        agent.stop()
        cache.refresh_all()
        assert cache.reachable("127.0.0.2", PORT_A) is None

    def test_unconfigured_cache_always_unknown(self):
        cache = ProbeCache(None)
        assert cache.reachable("10.4.0.2", 80) is None
        cache.refresh_all()
        assert cache.reachable("10.4.0.2", 80) is None

    def test_purge_forgets_everything(self, agent):
        cache = ProbeCache(agent, src="test")
        cache.register_pair("127.0.0.2", PORT_A)
        cache.refresh_all()
        cache.purge()
        assert cache.reachable("127.0.0.2", PORT_A) is None


class TestGatingEndToEnd:
    """The decision engine consults the cache: a pair flips from ignored to
    rewritten within one refresh, never before a fresh positive result."""

    def test_flip_from_ignore_to_rewrite(self, agent):
        import b4ns.engine as engine
        from b4ns.engine import NetEnvironment, PublishMapping

        env = NetEnvironment(
            container_cidrs=["127.0.0.0/8"],
            host_loopback_allowed=True,
            published_ports=[PublishMapping("127.0.0.2", PORT_A,
                                            "127.0.0.1", 19999)])
        cache = ProbeCache(agent, src="test")
        op = ("connect", socket.AF_INET, "127.0.0.2", PORT_A)

        first = engine.decide(op, env, probes=cache)
        assert first.verdict == "ignore"  # unknown never switches
        deadline = time.monotonic() + DEFAULT_PERIOD
        cache.refresh_all()  # one refresh cycle
        second = engine.decide(op, env, probes=cache)
        assert second.verdict == "rewrite"
        assert time.monotonic() < deadline
