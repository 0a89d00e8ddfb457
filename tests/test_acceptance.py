"""Acceptance gate: one test per release criterion, each emitting a
single PASS/FAIL line (run with -s to see them inline)."""

import functools
import json
import random
import socket
import threading
import time

import pytest

from b4ns import bench, traces
from b4ns.engine import NetEnvironment, PublishMapping, decide
from b4ns.errors import MemFault
from b4ns.kvs import FileKvs, MirrorCache, mapping_key
from b4ns.probe import ProbeCache
from b4ns.registry import (
    _LEGAL_TRANSITIONS,
    IllegalTransition,
    OptionEvent,
    SocketRecord,
    SocketRegistry,
    SocketStatus,
)
from b4ns.targetmem import RemoteFd

import conftest
from conftest import EchoServer, run_control, supervise
from fakes import FakeMem
from oracle_fdtable import ORACLE_CLASSES, simulate
from test_kvs import CountingKvs
from tracegen import generate


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _record(f"ACCEPTANCE {n}: FAIL - {desc}")
                raise
            _record(f"ACCEPTANCE {n}: PASS - {desc}")
        return wrapper
    return deco


def _record(line):
    print(f"\n{line}")
    conftest.ACCEPTANCE_LINES.append(line)


@criterion(1, "64 MiB supervised echo is digest-identical with exactly one "
              "switched socket in under 30 s")
def test_1_end_to_end_switch(tmp_path, echo_server):
    t0 = time.monotonic()
    script = [{"op": "socket"},
              {"op": "connect", "host": echo_server.host,
               "port": echo_server.port},
              {"op": "echo_roundtrip", "bytes": 64 << 20, "timeout": 120},
              {"op": "close"}]
    run = supervise(tmp_path, script)
    run.wait(timeout=60)
    elapsed = time.monotonic() - t0
    rt = run.result("echo_roundtrip")
    assert rt["sent"] == rt["received"] == 64 << 20
    assert rt["sent_digest"] == rt["recv_digest"]
    assert run.sup.counters.sockets_switched == 1
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


SEQUENCES = {
    "empty": [],
    "nonblock": [{"op": "set_nonblock"}],
    "sndbuf+nonblock": [
        {"op": "setsockopt", "level": socket.SOL_SOCKET,
         "optname": socket.SO_SNDBUF, "value": 262144},
        {"op": "set_nonblock"},
    ],
}


@criterion(2, "option replay: switched-socket readback equals an identically "
              "configured control socket")
def test_2_option_replay_equivalence(tmp_path, echo_server):
    def observe(pre, supervised, name):
        script = ([{"op": "socket"}] + pre
                  + [{"op": "connect", "host": echo_server.host,
                      "port": echo_server.port},
                     {"op": "fcntl_getfl"},
                     {"op": "getsockopt", "level": socket.SOL_SOCKET,
                      "optname": socket.SO_SNDBUF},
                     {"op": "close"}])
        if supervised:
            run = supervise(tmp_path, script, name=name)
            run.wait()
            assert run.sup.counters.sockets_switched == 1
        else:
            run = run_control(tmp_path, script, name=name, netns="host")
        assert run.result("connect")["ok"]
        return (run.result("fcntl_getfl")["flags"],
                run.result("getsockopt")["value"])

    for i, (label, pre) in enumerate(SEQUENCES.items()):
        s_flags, s_buf = observe(pre, True, f"s{i}")
        c_flags, c_buf = observe(pre, False, f"c{i}")
        assert s_flags == c_flags, label  # exact flag equality
        wanted = next((p["value"] for p in pre if p["op"] == "setsockopt"), 0)
        assert s_buf >= wanted and c_buf >= wanted, label  # kernel rounds up


@criterion(3, "published port 80->8080: cross-sandbox connect succeeds via "
              "the host mapping and getpeername returns the sandbox peer "
              "bit-exactly")
def test_3_rewrite_and_spoof(tmp_path):
    env = NetEnvironment(
        container_cidrs=["10.4.0.0/24"],
        published_ports=[PublishMapping("10.4.0.2", 80, "127.0.0.1", 8080)])
    server_script = [{"op": "socket"},
                     {"op": "bind", "host": "10.4.0.2", "port": 80},
                     {"op": "listen"},
                     {"op": "barrier", "name": "listening"},
                     {"op": "serve_echo"}]
    client_script = [{"op": "socket"},
                     {"op": "connect", "host": "10.4.0.2", "port": 80},
                     {"op": "getpeername"},
                     {"op": "echo_roundtrip", "bytes": 1 << 16},
                     {"op": "close"}]
    srv = supervise(tmp_path, server_script, env=env, name="srv")
    assert srv.readline()["ok"]
    assert srv.readline()["name"] == "listening"
    srv.release_barrier()
    cli = supervise(tmp_path, client_script, env=env, name="cli")
    cli.wait()
    srv.wait()
    assert cli.result("connect")["ok"]
    rt = cli.result("echo_roundtrip")
    assert rt["sent_digest"] == rt["recv_digest"]
    peer = cli.result("getpeername")
    assert (peer["addr"], peer["port"]) == ("10.4.0.2", 80)
    assert srv.sup.counters.sockets_switched == 1
    assert cli.sup.counters.sockets_switched == 1


class FlippableAgent:
    """Probe-agent stand-in whose answer the test controls."""

    def __init__(self):
        self.answer = False

    def alive(self):
        return True

    def request(self, obj, timeout=3.0):
        assert obj["op"] == "probe"
        return {"reachable": self.answer}

    def stop(self):
        pass


@criterion(4, "probe gating: unreachable pair stays unswitched; flipping to "
              "reachable flips the decision within one refresh period")
def test_4_probe_gating(tmp_path):
    host_srv = EchoServer()
    # the mapping's host side is the running echo server's real port
    env = NetEnvironment(
        container_cidrs=["10.4.0.0/24"],
        published_ports=[PublishMapping(
            "10.4.0.5", 80, host_srv.host, host_srv.port)])
    agent = FlippableAgent()
    cache = ProbeCache(agent, src="gate")
    script = [
        {"op": "socket", "sock": "a"},
        {"op": "connect", "sock": "a", "host": "10.4.0.5", "port": 80},
        {"op": "close", "sock": "a"},
        {"op": "barrier", "name": "flip"},
        {"op": "socket", "sock": "b"},
        {"op": "connect", "sock": "b", "host": "10.4.0.5", "port": 80},
        {"op": "close", "sock": "b"},
    ]
    run = supervise(tmp_path, script, env=env, probes=cache)
    first = run.readline()
    assert not first["ok"]  # unreachable probe result: unswitched path fails
    assert run.readline()["name"] == "flip"
    agent.answer = True
    t_flip = time.monotonic()
    cache.refresh_all()  # one refresh cycle, no waiting for the period timer
    run.release_barrier()
    run.wait()
    flip_latency = time.monotonic() - t_flip
    # the first connect line was already consumed via readline(); only the
    # post-flip connect remains in the collected output
    remaining = run.results("connect")
    assert len(remaining) == 1, remaining
    second = remaining[0]
    assert second["ok"], second
    assert run.sup.counters.sockets_switched == 1
    assert flip_latency <= 5.0
    host_srv.close()


@criterion(5, "multinode mapping resolves from the local mirror in <1 ms "
              "without touching the blackholed store")
def test_5_multinode_cache(tmp_path):
    kvs = CountingKvs(tmp_path / "kvs")
    kvs.put(mapping_key("10.4.0.3", 80), json.dumps({
        "host_addr": "198.51.100.8", "host_port": 8080,
        "node_id": "HostB", "lease_expiry": time.time() + 300,
    }))
    mirror = MirrorCache(kvs)
    assert mirror.refresh_now()
    kvs.blackholed = True
    kvs.ops.clear()
    t0 = time.perf_counter()
    for _ in range(1000):
        assert mirror.resolve("10.4.0.3", 80) == ("198.51.100.8", 8080)
    per_call = (time.perf_counter() - t0) / 1000
    assert per_call < 0.001
    assert kvs.ops == []  # zero inline store traffic


@criterion(6, "trace lifecycles equal the independent fd-table oracle on a "
              "200-event trace; all 26 syscalls classify with zero diffs")
def test_6_trace_oracle():
    from b4ns.registry import classify_syscall
    from test_traces import assert_matches_oracle

    events = generate(seed=42, n_events=200)
    names = {e["syscall"] for e in events}
    assert {"socket", "fork", "accept", "dup", "close"} <= names
    assert_matches_oracle(events)
    diffs = {n for n, c in ORACLE_CLASSES.items()
             if classify_syscall(n).value != c}
    assert diffs == set()
    assert len(ORACLE_CLASSES) == 26


@criterion(7, "loopback 1 GiB 3-run median: bypass >= 2x relay and >= 0.8x "
              "direct in under 5 minutes")
def test_7_performance_ordering():
    t0 = time.monotonic()
    cfg = {"payload_bytes": 1 << 30, "parallel_streams": 1}
    results = bench.median_results(("relay", "bypass", "direct"), cfg, runs=3)
    elapsed = time.monotonic() - t0
    for r in results.values():
        assert r.digest_ok
    bypass = results["bypass"].throughput_bps
    relay = results["relay"].throughput_bps
    direct = results["direct"].throughput_bps
    print(f"\n  relay={relay/1e9:.2f} bypass={bypass/1e9:.2f} "
          f"direct={direct/1e9:.2f} Gbps ({elapsed:.0f}s)")
    assert bypass >= 2.0 * relay, f"bypass/relay = {bypass/relay:.2f}"
    assert bypass >= 0.8 * direct, f"bypass/direct = {bypass/direct:.2f}"
    assert elapsed < 300.0


def _no_half_switched(sup):
    for entry in sup.registry.snapshot():
        assert entry["status"] != "switched"


@criterion(8, "fail-closed: every injected fault leaves the connection with "
              "the unsupervised control outcome and no half-switched state")
def test_8_fail_closed(tmp_path, echo_server, monkeypatch):
    script = [{"op": "socket"},
              {"op": "connect", "host": echo_server.host,
               "port": echo_server.port}]
    control = run_control(tmp_path, script, name="ctl")
    ctl = control.result("connect")

    outcomes = {}

    def run_fault(name, env=None, probes=None, multinode=None):
        r = supervise(tmp_path, script, env=env, name=name, probes=probes,
                      multinode=multinode)
        r.wait()
        outcomes[name] = r.result("connect")
        assert r.sup.counters.sockets_switched == 0, name
        _no_half_switched(r.sup)

    # replay failure
    from b4ns.errors import ReplayFailed

    def bad_replay(rec, host_socket):
        raise ReplayFailed("fault injection")

    monkeypatch.setattr("b4ns.engine.replay_options", bad_replay)
    run_fault("replay")
    monkeypatch.undo()

    # memory fault while reading the sockaddr
    from b4ns.targetmem import MemService

    def bad_read(self, pid, addr, length):
        raise MemFault("fault injection")

    monkeypatch.setattr(MemService, "read", bad_read)
    run_fault("memfault")
    monkeypatch.undo()

    # stale cookie: every validation fails
    from b4ns.notify import NotificationChannel

    monkeypatch.setattr(NotificationChannel, "validate", lambda self, ev: False)
    run_fault("stale")
    monkeypatch.undo()

    # KVS down: empty, unrefreshable mirror; destination resolvable only via
    # the multinode path (not locally published)
    dead = CountingKvs(tmp_path / "deadkvs")
    dead.blackholed = True
    mirror = MirrorCache(dead)
    mirror.refresh_now()
    mn_env = NetEnvironment(container_cidrs=["127.0.0.0/8"],
                            host_loopback_allowed=True)
    run_fault("kvsdown", env=mn_env, multinode=mirror)

    # probe down: published pair gated by a dead probe cache
    gated_env = NetEnvironment(
        container_cidrs=["127.0.0.0/8"], host_loopback_allowed=True,
        published_ports=[PublishMapping(echo_server.host, echo_server.port,
                                        "127.0.0.1", 18099)])
    run_fault("probedown", env=gated_env, probes=ProbeCache(None))

    # all faults converge on the control outcome (unswitched, same errno)
    for name, out in outcomes.items():
        assert out["ok"] == ctl["ok"], name
        if not out["ok"]:
            assert out["err"] == ctl["err"], name


@criterion(9, "10,000 randomized sequences: zero illegal transitions and "
              "zero option leaks across fd reuse")
def test_9_state_machine_properties():
    rng = random.Random(0xB4A5)
    probe_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    import os as _os

    mem = FakeMem()
    mem.fd_probe = lambda pid, fd: RemoteFd(pid, fd,
                                            _os.dup(probe_sock.fileno()))
    illegal = 0
    leaks = 0
    try:
        for _ in range(10_000):
            reg = SocketRegistry()
            pid, fd = 1, rng.randint(3, 5)
            rec = reg.ensure_registered(pid, fd, mem)
            generation_marker = rng.random()
            for _ in range(rng.randint(1, 12)):
                action = rng.randrange(5)
                before = rec.status
                if action == 0:
                    reg.record_option(rec, OptionEvent(
                        "fcntl", (1, generation_marker)))
                elif action == 1:
                    target = rng.choice(list(SocketStatus))
                    legal = target in _LEGAL_TRANSITIONS[before]
                    try:
                        rec.transition(target)
                        accepted = True
                    except IllegalTransition:
                        accepted = False
                    if accepted != legal:
                        illegal += 1
                    if not accepted and rec.status is not before:
                        illegal += 1  # rejected transition must not mutate
                elif action == 2:
                    reg.mark_non_switchable(rec)
                elif action == 3:
                    if rec.status is SocketStatus.TRACKABLE:
                        reg.mark_switched(rec, 99)
                else:
                    reg.on_close(pid, fd)
                    # fd number reuse: a fresh record must start clean
                    rec = reg.ensure_registered(pid, fd, mem)
                    if any(ev.args[1] == generation_marker
                           for ev in rec.options):
                        leaks += 1
                    generation_marker = rng.random()
    finally:
        probe_sock.close()
    assert illegal == 0
    assert leaks == 0
