"""Daemon lifecycle and its management API over the unix socket."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import b4ns
from b4ns import cli, notify
from b4ns.daemon import (
    ContainerSpec,
    Daemon,
    DaemonClient,
    ManagedInstance,
    _UnixHTTPConnection,
    serve_api,
)
from b4ns.engine import PublishMapping, unprivileged_port_start
from b4ns.errors import ChannelClosed, DuplicateContainer, UnknownContainer

from conftest import launch_shim, ShimRun

SRC = os.path.dirname(b4ns.__path__[0])

# host ports below this one need privileges here
PORT_START = unprivileged_port_start()


@pytest.fixture
def api(tmp_path):
    daemon = Daemon(node_id="test-node")
    srv = serve_api(daemon, str(tmp_path / "api.sock"))
    client = DaemonClient(str(tmp_path / "api.sock"))
    yield daemon, client
    srv.shutdown()
    srv.server_close()
    daemon.shutdown()


def spec_dict(tmp_path, cid, handoff_name=None):
    return {
        "container_id": cid,
        "seccomp_handoff_path": str(tmp_path / (handoff_name or f"{cid}.sock")),
        "container_cidrs": ["10.99.0.0/24"],
        "host_loopback_allowed": True,
    }


def start_supervised(tmp_path, client, cid, script):
    """POST the spec, then launch the shim that performs the handoff."""
    spec = spec_dict(tmp_path, cid)
    status, payload = client.start(spec)
    assert status == 201, payload
    proc = launch_shim(tmp_path, script, name=cid,
                       handoff=spec["seccomp_handoff_path"])
    return ShimRun(proc), spec


def wait_state(client, cid, states, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = client.status(cid)
        if status == 200 and payload["state"] in states:
            return payload
        time.sleep(0.05)
    raise AssertionError(f"{cid} never reached {states}; last: {payload}")


class TestLifecycle:
    def test_start_run_and_natural_stop(self, tmp_path, api, echo_server):
        daemon, client = api
        script = [{"op": "socket"},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "close"}]
        run, _ = start_supervised(tmp_path, client, "c1", script)
        payload = wait_state(client, "c1", {"running", "stopped"})
        run.wait()
        payload = wait_state(client, "c1", {"stopped"})
        assert payload["counters"]["sockets_switched"] == 1
        assert payload["error"] is None

    def test_explicit_stop_while_running(self, tmp_path, api):
        daemon, client = api
        script = [{"op": "barrier", "name": "parked"}]
        run, _ = start_supervised(tmp_path, client, "c2", script)
        assert run.readline()["name"] == "parked"
        wait_state(client, "c2", {"running"})
        status, payload = client.stop("c2")
        assert status == 200
        assert payload["state"] in ("stopping", "stopped")
        wait_state(client, "c2", {"stopped"})
        # stopping again is a no-op, not an error
        status, payload = client.stop("c2")
        assert status == 200
        run.release_barrier()
        run.wait()

    def test_restart_same_id_after_stop(self, tmp_path, api, echo_server):
        daemon, client = api
        script = [{"op": "socket"}, {"op": "close"}]
        run, _ = start_supervised(tmp_path, client, "c3", script)
        run.wait()
        wait_state(client, "c3", {"stopped"})
        run2, _ = start_supervised(tmp_path, client, "c3", script)
        run2.wait()
        wait_state(client, "c3", {"stopped"})

    def test_registry_endpoint(self, tmp_path, api):
        daemon, client = api
        script = [{"op": "socket"},
                  {"op": "barrier", "name": "open"},
                  {"op": "close"}]
        run, _ = start_supervised(tmp_path, client, "c4", script)
        run.readline()
        wait_state(client, "c4", {"running"})
        # force the fd into the registry: an unswitched bind probe would do,
        # but the registry only learns fds from hooked syscalls; close is one
        run.release_barrier()
        run.wait()
        status, payload = client.registry("c4")
        assert status == 200
        assert isinstance(payload, list)


class TestApiServer:
    def test_stop_returns_at_once(self, tmp_path):
        daemon = Daemon(node_id="test-node")
        srv = serve_api(daemon, str(tmp_path / "api.sock"))
        try:
            assert DaemonClient(str(tmp_path / "api.sock")).status() == (200, [])
            t0 = time.monotonic()
            srv.shutdown()
            # not after serve_forever's next 0.5 s poll
            assert time.monotonic() - t0 < 0.1
        finally:
            srv.server_close()
            daemon.shutdown()

    def test_exit_closes_and_removes_the_socket(self, tmp_path, monkeypatch):
        """b4nsd's exit path closes the listening socket and removes its
        path; SIGTERM is delivered by calling the handler it installs."""
        path = tmp_path / "api.sock"
        servers, handlers = [], {}

        def recording_serve_api(daemon, api_socket_path):
            servers.append(serve_api(daemon, api_socket_path))
            return servers[0]

        monkeypatch.setattr("b4ns.daemon.serve_api", recording_serve_api)
        # the fd limit is raised in a subprocess (TestFdLimit), not here
        monkeypatch.setattr(cli, "_raise_fd_limit", lambda: None)
        monkeypatch.setattr(signal, "signal",
                            lambda sig, handler: handlers.update({sig: handler}))

        def sigterm_once_serving():
            try:
                deadline = time.monotonic() + 10
                while (signal.SIGTERM not in handlers
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert DaemonClient(str(path)).status() == (200, [])
            finally:
                handlers[signal.SIGTERM](signal.SIGTERM, None)

        sender = threading.Thread(target=sigterm_once_serving, daemon=True)
        sender.start()
        assert cli.main_daemon(["--api-socket", str(path)]) == 0
        sender.join(5)
        assert not sender.is_alive()
        assert not path.exists()
        assert servers[0].socket.fileno() == -1


# an entry point in a fresh interpreter whose soft fd limit is half its hard
# one: prints the soft and hard limits where the command would start to
# serve, then exits
FD_LIMIT = """
import resource, sys
from b4ns import cli, daemon, notify

def serve(*args, **kwargs):
    print(*resource.getrlimit(resource.RLIMIT_NOFILE), flush=True)
    sys.exit(0)

daemon.Daemon = notify.attach = serve
hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
resource.setrlimit(resource.RLIMIT_NOFILE, (hard // 2, hard))
getattr(cli, sys.argv[1])(sys.argv[2:])
"""


class TestFdLimit:
    @pytest.mark.parametrize("main, argv", [
        ("main_daemon", ["--api-socket", "unused.sock"]),
        ("main_b4ns", ["attach", "--handoff", "unused.sock"]),
    ])
    def test_soft_limit_is_raised_before_serving(self, tmp_path, main, argv):
        """b4nsd and ``b4ns attach`` serve with the soft limit on open fds
        at the hard one, as bypass4netns, a Go program, does."""
        out = subprocess.run(
            [sys.executable, "-c", FD_LIMIT, main, *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=60, check=True)
        soft, hard = map(int, out.stdout.split()[-2:])
        assert soft == hard


class TestApiErrors:
    def test_duplicate_container_conflicts(self, tmp_path, api):
        daemon, client = api
        script = [{"op": "barrier", "name": "parked"}]
        run, spec = start_supervised(tmp_path, client, "dup", script)
        run.readline()
        wait_state(client, "dup", {"running"})
        status, payload = client.start(spec)
        assert status == 409
        assert "DuplicateContainer" in payload["error"]
        client.stop("dup")
        run.release_barrier()
        run.wait()

    def test_unknown_container(self, api):
        daemon, client = api
        status, payload = client.status("nope")
        assert status == 404
        status, payload = client.stop("nope")
        assert status == 404

    def test_unknown_endpoint(self, api):
        daemon, client = api
        status, _ = client._request("GET", "/bogus")
        assert status == 404

    @pytest.mark.parametrize("body", [
        b"{not json",
        b"[]",
        b'{"seccomp_handoff_path": "/tmp/h.sock"}',
        b'{"container_id": "c", "seccomp_handoff_path": "/tmp/h.sock",'
        b' "publish": ["8080:80"], "multinode_enabled": true}',
        pytest.param(
            b'{"container_id": "c", "seccomp_handoff_path": "/tmp/h.sock",'
            b' "publish": ["%d:80"]}' % (PORT_START - 1),
            marks=pytest.mark.skipif(
                PORT_START <= 1, reason=f"ip_unprivileged_port_start is "
                f"{PORT_START}: no host port is privileged")),
        b'{"container_id": "c", "seccomp_handoff_path": "/tmp/h.sock",'
        b' "container_cidrs": ["10.4.0.0/16", "10.4.1.0/24"]}',
    ], ids=["bad-json", "not-an-object", "no-container-id",
            "short-publish-multinode", "privileged-host-port",
            "overlapping-cidrs"])
    def test_a_spec_it_cannot_run_is_a_bad_request(self, tmp_path, api,
                                                   body):
        daemon, client = api
        conn = _UnixHTTPConnection(str(tmp_path / "api.sock"))
        try:
            conn.request("POST", "/containers", body=body)
            resp = conn.getresponse()
            payload = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 400, payload
        assert "bad spec" in payload["error"]
        assert daemon.status() == []

    def test_bad_handoff_directory_fails_fast(self, tmp_path, api):
        daemon, client = api
        spec = spec_dict(tmp_path, "badpath")
        spec["seccomp_handoff_path"] = "/nonexistent-dir/x.sock"
        status, payload = client.start(spec)
        assert status == 201
        assert payload["state"] == "failed"
        assert "AttachFailed" in payload["error"]

    def test_list_all_statuses(self, tmp_path, api):
        daemon, client = api
        spec = spec_dict(tmp_path, "lone")
        spec["seccomp_handoff_path"] = "/nonexistent-dir/x.sock"
        client.start(spec)
        status, payload = client.status()
        assert status == 200
        assert any(s["container_id"] == "lone" for s in payload)


class IdleChannel:
    """A channel whose target never makes a hooked syscall."""

    def __init__(self):
        self.polls = 0
        self.closed = False
        self._woken = threading.Event()

    def next_event(self):
        self.polls += 1
        self._woken.wait(10)
        raise ChannelClosed("idle")

    def wake(self):
        self._woken.set()

    def close(self):
        self.closed = True


class RecordingPublisher:
    def __init__(self):
        self.calls = []

    def publish(self, mapping):
        self.calls.append(("publish", mapping))

    def withdraw(self, mapping):
        self.calls.append(("withdraw", mapping))


class TestDaemonDirect:
    def test_attach_timeout_marks_failed(self, tmp_path):
        spec = ContainerSpec("t1", str(tmp_path / "never.sock"))
        inst = ManagedInstance(spec, attach_timeout=0.3)
        inst.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and inst.status().state != "failed":
            time.sleep(0.05)
        st = inst.status()
        assert st.state == "failed"
        assert "AttachFailed" in st.error

    def test_spec_it_cannot_run_fails_before_the_handoff(self, tmp_path):
        # built in code, so from_dict never checked it
        spec = ContainerSpec("bad", str(tmp_path / "bad.sock"), publish=[
            PublishMapping("0.0.0.0", 80, "0.0.0.0", 80)])
        inst = ManagedInstance(spec, attach_timeout=30)
        inst.start()
        try:
            inst._thread.join(5)
            st = inst.status()
            assert (st.state, inst._thread.is_alive()) == ("failed", False)
            assert "host port 80" in st.error
            # nothing listens: no runtime hands off to a dead instance
            assert not os.path.exists(spec.seccomp_handoff_path)
        finally:
            inst.stop()

    def test_stop_during_attach_returns_at_once(self, tmp_path):
        spec = ContainerSpec("t2", str(tmp_path / "never.sock"))
        inst = ManagedInstance(spec, attach_timeout=0.3)
        inst.start()
        t0 = time.monotonic()
        inst.stop()
        assert time.monotonic() - t0 < 0.5
        assert inst.status().state == "stopped"
        inst._thread.join(5)  # the attach times out meanwhile
        assert not inst._thread.is_alive()
        st = inst.status()
        assert (st.state, st.error) == ("stopped", None)

    def test_duplicate_raises_at_daemon_layer(self, tmp_path):
        d = Daemon(node_id="n")
        try:
            spec = ContainerSpec("x", str(tmp_path / "x.sock"))
            inst_status = d.start_instance(spec)
            assert inst_status.state == "starting"
            with pytest.raises(DuplicateContainer):
                d.start_instance(spec)
            with pytest.raises(UnknownContainer):
                d.status("y")
        finally:
            d.shutdown()  # no runtime came: the handoff wait ends here

    @pytest.mark.parametrize("via", ["stop", "shutdown"])
    def test_stop_during_the_handoff_ends_it(self, tmp_path, via):
        """Once stop() or Daemon.shutdown() returns, the real attach has
        stopped waiting: the instance's thread has exited, and the handoff
        path refuses a runtime, which could otherwise be handed a channel
        that is closed at once."""
        spec = ContainerSpec("h", str(tmp_path / "h.sock"))
        d = Daemon(node_id="n")
        d.start_instance(spec)
        (inst,) = d._instances.values()
        deadline = time.monotonic() + 5
        while not os.path.exists(spec.seccomp_handoff_path):
            assert time.monotonic() < deadline, "the handoff never listened"
            time.sleep(0.005)
        if via == "stop":
            d.stop_instance("h")
        else:
            d.shutdown()
        assert not inst._thread.is_alive()
        with socket.socket(socket.AF_UNIX) as runtime:
            with pytest.raises(ConnectionRefusedError):
                runtime.connect(spec.seccomp_handoff_path)
        st = inst.status()
        assert (st.state, st.error) == ("stopped", None)

    def _stop_during_attach(self, monkeypatch, spec, publisher=None):
        """Start an instance whose attach blocks until stop() has set
        ``stopping``, then let a runtime hand off; return the instance and
        the channel attach returned."""
        entered, release = threading.Event(), threading.Event()
        chan = IdleChannel()

        def blocked_attach(path, timeout, stop_fd):
            # deaf to stop_fd: the runtime's handoff races the stop
            entered.set()
            release.wait(10)
            return chan

        monkeypatch.setattr(notify, "attach", blocked_attach)
        inst = ManagedInstance(spec, publisher=publisher)
        inst.start()
        assert entered.wait(5)
        stopper = threading.Thread(target=inst.stop)
        stopper.start()
        deadline = time.monotonic() + 5
        while inst.status().state == "starting" and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()  # a runtime hands off only now
        stopper.join(10)
        inst._thread.join(15)
        assert not stopper.is_alive() and not inst._thread.is_alive()
        return inst, chan

    def test_stop_during_attach_is_never_undone(self, tmp_path, monkeypatch):
        inst, chan = self._stop_during_attach(
            monkeypatch, ContainerSpec("s", str(tmp_path / "s.sock")))
        assert inst.status().state == "stopped"
        assert inst.supervisor is None
        assert chan.closed and chan.polls == 0

    def test_stop_during_attach_never_publishes(self, tmp_path, monkeypatch):
        publisher = RecordingPublisher()
        spec = ContainerSpec("p", str(tmp_path / "p.sock"),
                             publish=[PublishMapping.parse("18090:80")])
        inst, chan = self._stop_during_attach(monkeypatch, spec, publisher)
        assert inst.status().state == "stopped"
        assert [c for c in publisher.calls if c[0] == "publish"] == []
        assert chan.closed

    def test_spec_from_dict_parses_publish_forms(self):
        spec = ContainerSpec.from_dict({
            "container_id": "c",
            "seccomp_handoff_path": "/tmp/h.sock",
            "publish": [
                "8080:80",
                {"container_addr": "10.4.0.2", "container_port": 81,
                 "host_addr": "0.0.0.0", "host_port": 8081},
            ],
        })
        assert spec.publish[0].host_port == 8080
        assert spec.publish[1].container_port == 81

    def test_spec_from_dict_rejects_short_publish_for_multinode(self):
        """The short form maps 0.0.0.0 to 0.0.0.0: another node could neither
        resolve its KVS key nor reach its host address."""
        d = {"container_id": "c", "seccomp_handoff_path": "/tmp/h.sock",
             "publish": ["8080:80"], "multinode_enabled": True}
        with pytest.raises(ValueError):
            ContainerSpec.from_dict(d)
        d["publish"] = [{"container_addr": "10.4.0.2", "container_port": 80,
                         "host_addr": "127.0.0.1", "host_port": 8080}]
        assert ContainerSpec.from_dict(d).publish == [
            PublishMapping("10.4.0.2", 80, "127.0.0.1", 8080)]
