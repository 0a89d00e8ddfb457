"""End-to-end switching against real supervised processes.

Every supervised target runs in a fresh, empty network namespace (loopback
only, usually down), so any traffic that actually reaches the host-side
echo server proves the in-namespace socket was replaced by a host socket.
"""

import errno
import fcntl
import json
import os
import shutil
import socket
import subprocess
import sys
import termios
import threading
import time

import pytest

from b4ns import cli
from b4ns.engine import NetEnvironment, PublishMapping
from b4ns.errors import ReplayFailed
from b4ns.sockaddr import pack_sockaddr_in
from b4ns.sysnr import NR

from conftest import EchoServer, ShimRun, launch_shim, run_control, supervise


def echo_script(host, port, nbytes=1 << 20, extra_pre=(), extra_post=()):
    return ([{"op": "socket"}] + list(extra_pre)
            + [{"op": "connect", "host": host, "port": port}]
            + list(extra_post)
            + [{"op": "echo_roundtrip", "bytes": nbytes}, {"op": "close"}])


class TestConnectSwitch:
    def test_switched_connect_reaches_host(self, tmp_path, echo_server):
        run = supervise(tmp_path,
                        echo_script(echo_server.host, echo_server.port))
        run.wait()
        assert run.result("connect")["ok"]
        rt = run.result("echo_roundtrip")
        assert rt["sent"] == rt["received"] == 1 << 20
        assert rt["sent_digest"] == rt["recv_digest"]
        assert run.sup.counters.sockets_switched == 1
        assert run.sup.counters.switches_rolled_back == 0

    def test_control_run_cannot_reach_host(self, tmp_path, echo_server):
        script = [{"op": "socket"},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port}]
        run = run_control(tmp_path, script)
        assert not run.result("connect")["ok"]

    def test_fd_reuse_after_close_switches_again(self, tmp_path, echo_server):
        script = (echo_script(echo_server.host, echo_server.port, 4096)
                  + echo_script(echo_server.host, echo_server.port, 4096))
        run = supervise(tmp_path, script)
        run.wait()
        assert all(r["ok"] for r in run.results("connect"))
        assert run.sup.counters.sockets_switched == 2
        # both records evicted on close: nothing lingers
        assert run.sup.registry.snapshot() == []


class TestAttachCommand:
    def test_attach_switches_and_reports(self, tmp_path, echo_server, capsys):
        """``b4ns attach`` supervises one target until it exits, then prints
        its counters as the last stdout line."""
        handoff = tmp_path / "attach.sock"
        rc = []
        attach = threading.Thread(target=lambda: rc.append(cli.main_b4ns(
            ["attach", "--handoff", str(handoff), "--allow-host-loopback"])),
            daemon=True)
        attach.start()
        run = ShimRun(launch_shim(
            tmp_path, echo_script(echo_server.host, echo_server.port, 4096),
            handoff=handoff))
        try:
            run.wait()
        finally:
            run.kill()
            attach.join(10)
        assert run.result("connect")["ok"]
        rt = run.result("echo_roundtrip")
        assert rt["sent_digest"] == rt["recv_digest"]
        assert echo_server.connections == 1
        assert rc == [0]
        last = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(last)["sockets_switched"] == 1


class TestSwitchedSocketLifetime:
    def test_peer_sees_eof_when_child_exits_without_close(self, tmp_path):
        n = 5
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(n)
        host, port = srv.getsockname()
        child = [{"op": "socket"},
                 {"op": "connect", "host": host, "port": port}]
        script = ([{"op": "fork", "ops": child}] * n
                  + [{"op": "barrier", "name": "children-exited"}])
        run = supervise(tmp_path, script)
        try:
            lines = [run.readline() for _ in range(n + 1)]
            assert [l.get("ok") for l in lines[:n]] == [True] * n
            assert lines[n]["name"] == "children-exited"
            # every child has exited; the target's parent is still alive
            eofs = 0
            srv.settimeout(5)
            for _ in range(n):
                conn, _ = srv.accept()
                with conn:
                    conn.settimeout(5)
                    try:
                        eofs += conn.recv(1) == b""
                    except socket.timeout:
                        pass
            assert eofs == n
        finally:
            run.release_barrier()
            run.wait()
            srv.close()
        assert run.sup.counters.sockets_switched == n

    def test_exited_children_leave_no_state(self, tmp_path):
        n = 50
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(n + 1)  # never accepted: no fd of ours per connection
        host, port = srv.getsockname()
        connect = {"op": "connect", "host": host, "port": port}
        # op_fork waits for each child: they run one at a time
        script = ([{"op": "socket"}, connect,
                   {"op": "barrier", "name": "before"}]
                  + [{"op": "fork", "ops": [{"op": "socket"}, connect]}] * n
                  + [{"op": "barrier", "name": "after"}])
        run = supervise(tmp_path, script)
        sup = run.sup

        def state():
            return (len(sup.registry.snapshot()), len(sup.mem.pidfd_cache),
                    len(os.listdir("/proc/self/fd")))

        try:
            assert run.readline()["ok"]
            assert run.readline()["name"] == "before"
            before = state()
            # the parent's own connect keeps no record, only its pidfd (and
            # memory handle, counted with the fds)
            assert before[:2] == (0, 1)
            run.release_barrier()
            lines = [run.readline() for _ in range(n + 1)]
            assert [l.get("ok") for l in lines[:n]] == [True] * n
            assert lines[n]["name"] == "after"
            # the last child's exit may still be on its way to the loop
            deadline = time.monotonic() + 5
            while state() != before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert state() == before
        finally:
            run.release_barrier()
            run.wait()
            srv.close()
        assert sup.counters.sockets_switched == n + 1

    @pytest.mark.parametrize("pre,flags", [
        ([], fcntl.FD_CLOEXEC),  # Python's sockets are non-inheritable
        ([{"op": "fcntl", "cmd": fcntl.F_SETFD, "arg": 0}], 0),
    ], ids=["cloexec", "inheritable"])
    def test_fd_flags_survive_switch(self, tmp_path, echo_server, pre, flags):
        getfd = {"op": "fcntl", "cmd": fcntl.F_GETFD}
        script = ([{"op": "socket"}] + pre
                  + [getfd,
                     {"op": "connect", "host": echo_server.host,
                      "port": echo_server.port},
                     getfd,
                     {"op": "close"}])
        run = supervise(tmp_path, script)
        run.wait()
        assert run.result("connect")["ok"]
        assert run.sup.counters.sockets_switched == 1
        got = [r["value"] for r in run.results("fcntl")
               if r["cmd"] == fcntl.F_GETFD]
        assert got == [flags, flags]

    def test_fd_flags_follow_fd_reuse(self, tmp_path, echo_server):
        # the supervisor holds one fdinfo file per process, for the last fd
        # number it read: the second socket reuses the first one's number,
        # the third takes another
        def connect_and_read(sock):
            return [{"op": "connect", "sock": sock, "host": echo_server.host,
                     "port": echo_server.port},
                    {"op": "fcntl_getfl", "sock": sock},
                    {"op": "fcntl", "sock": sock, "cmd": fcntl.F_GETFD}]

        script = ([{"op": "socket", "flags": socket.SOCK_NONBLOCK}]
                  + connect_and_read("s0")
                  + [{"op": "close"}, {"op": "socket"},
                     {"op": "fcntl", "cmd": fcntl.F_SETFD, "arg": 0}]
                  + connect_and_read("s0")
                  + [{"op": "socket", "sock": "s1"}]
                  + connect_and_read("s1")
                  + [{"op": "close", "sock": "s1"}, {"op": "close"}])
        run = supervise(tmp_path, script)
        run.wait()
        ctl = run_control(tmp_path, script)

        def flags(r):
            return ([f["flags"] & os.O_NONBLOCK
                     for f in r.results("fcntl_getfl")],
                    [f["value"] for f in r.results("fcntl")
                     if f["cmd"] == fcntl.F_GETFD])

        assert [c["ok"] for c in run.results("connect")] == [True] * 3
        assert run.sup.counters.sockets_switched == 3
        assert flags(run) == flags(ctl) == (
            [os.O_NONBLOCK, 0, 0], [fcntl.FD_CLOEXEC, 0, fcntl.FD_CLOEXEC])

    def test_read_only_ioctls_keep_socket_switchable(self, tmp_path,
                                                     echo_server):
        script = [{"op": "socket"},
                  {"op": "ioctl", "request": termios.FIONREAD},
                  {"op": "ioctl", "request": termios.FIONCLEX},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "fcntl", "cmd": fcntl.F_GETFD},
                  {"op": "close"}]
        run = supervise(tmp_path, script)
        run.wait()
        assert [r["ok"] for r in run.results("ioctl")] == [True, True]
        assert run.result("connect")["ok"]
        assert run.sup.counters.sockets_switched == 1
        # FIONCLEX cleared close-on-exec, and the switch kept it cleared
        assert run.result("fcntl")["value"] == 0


class TestExec:
    def test_connect_after_execve_is_switched(self, tmp_path, echo_server):
        connect = {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port}
        after = tmp_path / "after-exec.json"
        after.write_text(json.dumps([{"op": "socket"}, connect,
                                     {"op": "close"}]))
        # the exec'd shim installs nothing: the filter and netns carry over
        argv = [sys.executable, "-m", "b4ns.target_shim", "--no-filter",
                "--script", str(after)]
        run = supervise(tmp_path, [{"op": "socket"}, connect,
                                   {"op": "exec", "argv": argv}])
        run.wait()
        assert [r["ok"] for r in run.results("connect")] == [True, True]
        assert run.sup.counters.sockets_switched == 2


SOCKET = {"op": "socket"}


class TestOptionReplay:
    def _run_with_options(self, tmp_path, echo_server, pre, supervised):
        script = (pre
                  + [{"op": "connect", "host": echo_server.host,
                      "port": echo_server.port},
                     {"op": "fcntl_getfl"},
                     {"op": "getsockopt", "level": socket.SOL_SOCKET,
                      "optname": socket.SO_SNDBUF},
                     {"op": "close"}])
        if supervised:
            run = supervise(tmp_path, script, keep_audit=True)
            run.wait()
        else:
            run = run_control(tmp_path, script, netns="host")
        return run

    @pytest.mark.parametrize("pre", [
        [SOCKET],
        [SOCKET, {"op": "set_nonblock"}],
        [SOCKET,
         {"op": "setsockopt", "level": socket.SOL_SOCKET,
          "optname": socket.SO_SNDBUF, "value": 262144},
         {"op": "set_nonblock"}],
        # Go's runtime creates every socket this way; socket() is unhooked
        [{"op": "socket", "flags": socket.SOCK_NONBLOCK}],
        [SOCKET, {"op": "ioctl", "request": termios.FIONBIO, "arg": 1}],
    ], ids=["none", "nonblock", "sndbuf+nonblock", "sock_nonblock", "fionbio"])
    def test_observed_options_match_control(self, tmp_path, echo_server, pre):
        sup_run = self._run_with_options(tmp_path, echo_server, pre, True)
        ctl_run = self._run_with_options(tmp_path, echo_server, pre, False)
        assert sup_run.result("connect")["ok"]
        # a non-blocking connect is in progress on both sides
        assert sup_run.result("connect") == ctl_run.result("connect")
        # the flags come from the kernel at switch time, not from a hook
        assert_never_notified(sup_run.sup, ("fcntl", "ioctl"))
        sup_flags = sup_run.result("fcntl_getfl")["flags"]
        ctl_flags = ctl_run.result("fcntl_getfl")["flags"]
        assert sup_flags == ctl_flags
        wanted = next((p["value"] for p in pre if p["op"] == "setsockopt"), 0)
        assert sup_run.result("getsockopt")["value"] >= wanted
        assert ctl_run.result("getsockopt")["value"] >= wanted
        assert sup_run.sup.counters.sockets_switched == 1


UNHOOKED = ("getsockopt", "getsockname", "shutdown")


def assert_never_notified(sup, names=UNHOOKED):
    """The filter sent none of ``names``: the audit shows a hooked syscall by
    name and any other by number."""
    seen = {name for _, name, _ in sup.audit}
    assert seen.isdisjoint(names + tuple(f"nr{NR[n]}" for n in names))


class TestUnhookedCallsOnSwitchedSocket:
    """getsockopt, getsockname and shutdown reach a switched socket without
    a notification and see what the host socket holds."""

    def test_nonblocking_connect_then_so_error(self, tmp_path, echo_server):
        script = [{"op": "socket"},
                  {"op": "set_nonblock"},
                  # EINPROGRESS, then select and getsockopt(SO_ERROR)
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "getsockopt", "level": socket.SOL_SOCKET,
                   "optname": socket.SO_ERROR},
                  {"op": "getsockname"},
                  {"op": "close"}]
        run = supervise(tmp_path, script, keep_audit=True)
        run.wait()
        connect = run.result("connect")
        assert connect["ok"] and connect["inprogress"]
        assert run.result("getsockopt")["value"] == 0
        # the host socket's own address (see README, Limitations)
        assert run.result("getsockname")["addr"] == echo_server.host
        assert run.sup.counters.sockets_switched == 1
        assert_never_notified(run.sup)

    def test_shutdown_wr_delivers_eof_while_fd_stays_open(self, tmp_path):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        host, port = srv.getsockname()
        script = [{"op": "socket"},
                  {"op": "connect", "host": host, "port": port},
                  {"op": "shutdown", "how": socket.SHUT_WR},
                  {"op": "barrier", "name": "shut"},
                  {"op": "close"}]
        run = supervise(tmp_path, script, keep_audit=True)
        try:
            assert run.readline()["ok"]  # connect
            assert run.readline()["ok"]  # shutdown
            assert run.readline()["name"] == "shut"
            srv.settimeout(5)
            conn, _ = srv.accept()
            with conn:
                conn.settimeout(5)
                # the target is parked at the barrier, its fd still open
                assert conn.recv(1) == b""
        finally:
            run.release_barrier()
            run.wait()
            srv.close()
        assert run.sup.counters.sockets_switched == 1
        assert_never_notified(run.sup)

    def test_options_read_back_after_switch_equal_control(self, tmp_path,
                                                          echo_server):
        options = [(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1),
                   (socket.SOL_SOCKET, socket.SO_RCVBUF, 65536),
                   (socket.IPPROTO_TCP, socket.TCP_NODELAY, 1),
                   (socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, 77)]
        script = ([{"op": "socket"}]
                  + [{"op": "setsockopt", "level": level, "optname": name,
                      "value": value} for level, name, value in options]
                  + [{"op": "connect", "host": echo_server.host,
                      "port": echo_server.port}]
                  + [{"op": "getsockopt", "level": level, "optname": name}
                     for level, name, _ in options]
                  + [{"op": "close"}])
        run = supervise(tmp_path, script, keep_audit=True)
        run.wait()
        ctl = run_control(tmp_path, script, netns="host")
        assert run.result("connect")["ok"] and ctl.result("connect")["ok"]
        assert run.sup.counters.sockets_switched == 1
        got = [r["value"] for r in run.results("getsockopt")]
        assert got == [r["value"] for r in ctl.results("getsockopt")]
        assert got[0] == got[2] == 1 and got[3] == 77
        assert_never_notified(run.sup)


def getsockopts(options):
    return [{"op": "getsockopt", "level": level, "optname": name}
            for level, name, *_ in options]


def setsockopts(options):
    return [{"op": "setsockopt", "level": level, "optname": name,
             "value": value} for level, name, value in options]


class TestOptionsWithoutCloseHook:
    """close is not hooked: a record goes when its fd number turns out to
    hold another socket; the copied options are read from the kernel."""

    RECORDED = [(socket.SOL_SOCKET, socket.SO_SNDBUF, 262144)]
    COPIED = [(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1),
              (socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1),
              (socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, 77)]

    def _both(self, tmp_path, script):
        run = supervise(tmp_path, script, keep_audit=True)
        run.wait()
        ctl = run_control(tmp_path, script, netns="host")
        assert all(r["ok"] for r in run.results("connect"))
        assert all(r["ok"] for r in ctl.results("connect"))
        return run, ctl

    def test_reused_number_starts_without_the_old_options(self, tmp_path,
                                                          echo_server):
        connect = {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port}
        options = self.RECORDED + self.COPIED
        script = ([{"op": "socket"}] + setsockopts(options)
                  + [connect, {"op": "close"},
                     # the lowest free number: the one just closed
                     {"op": "socket"}, connect]
                  + getsockopts(options) + [{"op": "close"}])
        run, ctl = self._both(tmp_path, script)
        assert run.sup.counters.sockets_switched == 2
        got = [r["value"] for r in run.results("getsockopt")]
        assert got == [r["value"] for r in ctl.results("getsockopt")]
        assert got[1:3] == [0, 0]  # nothing of the first socket's

    def test_copied_options_after_connect_never_notify(self, tmp_path,
                                                       echo_server):
        options = self.RECORDED + self.COPIED
        script = ([{"op": "socket"}] + setsockopts(self.RECORDED)
                  + [{"op": "connect", "host": echo_server.host,
                      "port": echo_server.port}]
                  + setsockopts(self.COPIED)  # as Go's net package does
                  + getsockopts(options) + [{"op": "close"}])
        run, ctl = self._both(tmp_path, script)
        assert run.sup.counters.sockets_switched == 1
        got = [r["value"] for r in run.results("getsockopt")]
        assert got == [r["value"] for r in ctl.results("getsockopt")]
        assert got[1:] == [1, 1, 77]
        # only SO_SNDBUF was notified, recorded and replayed
        setsockopt = [a for _, name, a in run.sup.audit if name == "setsockopt"]
        assert setsockopt == ["continue"]


PUBLISH_ENV = lambda hport: NetEnvironment(
    container_cidrs=["10.4.0.0/24"],
    published_ports=[PublishMapping("10.4.0.2", 80, "127.0.0.1", hport)],
)


class TestBindSwitch:
    def test_published_bind_listens_on_host_mapping(self, tmp_path):
        hport = 18085
        script = [{"op": "socket"},
                  {"op": "bind", "host": "10.4.0.2", "port": 80},
                  {"op": "listen"},
                  {"op": "barrier", "name": "listening"},
                  {"op": "serve_echo"}]
        run = supervise(tmp_path, script, env=PUBLISH_ENV(hport))
        assert run.readline()["ok"]  # bind succeeded (synthesized)
        assert run.readline()["name"] == "listening"
        run.release_barrier()
        cli = socket.create_connection(("127.0.0.1", hport), timeout=5)
        try:
            cli.sendall(b"ping-through-host-mapping")
            assert cli.recv(64) == b"ping-through-host-mapping"
        finally:
            cli.close()
        run.wait()
        assert run.sup.counters.sockets_switched == 1

    def test_unpublished_bind_stays_in_namespace(self, tmp_path):
        script = [{"op": "socket"},
                  {"op": "bind", "host": "0.0.0.0", "port": 8123},
                  {"op": "close"}]
        run = supervise(tmp_path, script, env=PUBLISH_ENV(18086), lo_up=True)
        run.wait()
        assert run.result("bind")["ok"]
        assert run.sup.counters.sockets_switched == 0
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", 8123), timeout=0.3)


class TestDecidedFromLiveSocket:
    """A connect or bind is switched only if the live socket allows it: an
    AF_INET TCP socket in TCP_CLOSE, and unbound.  Anything else continues
    to the kernel, which answers as it would unsupervised."""

    def _both(self, tmp_path, script, **kwargs):
        run = supervise(tmp_path, script, **kwargs)
        run.wait()
        return run, run_control(tmp_path, script)

    def test_inet6_socket_with_inet_sockaddr_gets_einval(self, tmp_path,
                                                         echo_server):
        script = [{"op": "socket", "family": socket.AF_INET6},
                  {"op": "connect_raw", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "getsockopt", "level": socket.SOL_SOCKET,
                   "optname": socket.SO_DOMAIN},
                  {"op": "close"}]
        run, ctl = self._both(tmp_path, script)
        assert ctl.result("connect_raw")["err"] == errno.EINVAL
        assert run.result("connect_raw") == ctl.result("connect_raw")
        assert run.result("getsockopt")["value"] == socket.AF_INET6
        assert run.sup.counters.sockets_switched == 0

    def test_short_inet_sockaddr_gets_einval(self, tmp_path, echo_server):
        # the kernel rejects an AF_INET addrlen below sizeof(sockaddr_in)
        script = [{"op": "socket"},
                  {"op": "connect_raw", "host": echo_server.host,
                   "port": echo_server.port, "len": 8},
                  {"op": "close"}]
        run, ctl = self._both(tmp_path, script)
        assert ctl.result("connect_raw")["err"] == errno.EINVAL
        assert run.result("connect_raw") == ctl.result("connect_raw")
        assert run.sup.counters.sockets_switched == 0

    def test_connect_on_listening_socket_gets_eisconn(self, tmp_path,
                                                       echo_server):
        script = [{"op": "socket"},
                  {"op": "bind", "host": "0.0.0.0", "port": 0},
                  {"op": "listen"},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "close"}]
        run, ctl = self._both(tmp_path, script)
        assert ctl.result("connect")["err"] == errno.EISCONN
        assert run.result("connect") == ctl.result("connect")
        assert run.sup.counters.sockets_switched == 0

    def test_connect_on_bound_socket_stays_in_namespace(self, tmp_path,
                                                         echo_server):
        # a fresh host socket would not carry the bind over
        script = [{"op": "socket"},
                  {"op": "bind", "host": "0.0.0.0", "port": 0},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "close"}]
        run, ctl = self._both(tmp_path, script)
        assert not ctl.result("connect")["ok"]
        assert run.result("connect") == ctl.result("connect")
        assert run.sup.counters.sockets_switched == 0

    def test_second_connect_on_switched_socket_gets_eisconn(self, tmp_path,
                                                            echo_server):
        connect = {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port}
        run = supervise(tmp_path, [{"op": "socket"}, connect, connect,
                                   {"op": "close"}])
        run.wait()
        assert [(r["ok"], r["err"]) for r in run.results("connect")] == [
            (True, 0), (False, errno.EISCONN)]
        assert run.sup.counters.sockets_switched == 1

    def test_second_bind_on_published_switched_socket_fails(self, tmp_path):
        bind = {"op": "bind", "host": "10.4.0.2", "port": 80}
        run = supervise(tmp_path, [{"op": "socket"}, bind, bind,
                                   {"op": "close"}], env=PUBLISH_ENV(18090))
        run.wait()
        # the host socket holds the mapping's address, not 10.4.0.2
        assert [(r["ok"], r["err"]) for r in run.results("bind")] == [
            (True, 0), (False, errno.EADDRNOTAVAIL)]
        assert run.sup.counters.sockets_switched == 1


class TestRewriteAndSpoof:
    def test_two_sandboxes_connect_via_host_mapping(self, tmp_path):
        hport = 18087
        env = PUBLISH_ENV(hport)
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
        # the target still sees the sandbox-side destination
        peer = cli.result("getpeername")
        assert (peer["addr"], peer["port"]) == ("10.4.0.2", 80)
        assert srv.sup.counters.sockets_switched == 1
        assert cli.sup.counters.sockets_switched == 1

    def test_getpeername_spoof_matches_control_view(self, tmp_path):
        """An unsupervised client connecting in-namespace sees the same peer
        as a supervised client whose connection was rewritten."""
        hport = 18088
        env = PUBLISH_ENV(hport)
        server_script = [{"op": "socket"},
                         {"op": "bind", "host": "10.4.0.2", "port": 80},
                         {"op": "listen"},
                         {"op": "barrier", "name": "listening"},
                         {"op": "serve_echo"}]
        srv = supervise(tmp_path, server_script, env=env, name="srv")
        assert srv.readline()["ok"]
        srv.readline()
        srv.release_barrier()
        cli = supervise(tmp_path, [
            {"op": "socket"},
            {"op": "connect", "host": "10.4.0.2", "port": 80},
            {"op": "getpeername"},
            {"op": "close"},
        ], env=env, name="cli")
        cli.wait()
        peer = cli.result("getpeername")
        assert peer["ok"]
        assert (peer["addr"], peer["port"]) == ("10.4.0.2", 80)
        srv.kill()
        srv.sup.join(5)

    @pytest.mark.parametrize("reconnect", [False, True],
                             ids=["disconnected", "reconnected-elsewhere"])
    def test_getpeername_off_the_host_peer_is_the_kernels(
            self, tmp_path, echo_server, reconnect):
        """Once a rewritten socket leaves the host peer its rewrite chose,
        getpeername answers as it does unsupervised."""
        other = EchoServer()
        tail = [{"op": "connect_raw", "host": "0.0.0.0", "port": 0,
                 "family": socket.AF_UNSPEC}]
        if reconnect:  # allowed: a host socket goes where a switch would
            tail.append({"op": "connect", "host": other.host,
                         "port": other.port})
        tail += [{"op": "getpeername"}, {"op": "close"}]
        env = NetEnvironment(
            container_cidrs=["10.4.0.0/24"], host_loopback_allowed=True,
            published_ports=[PublishMapping("10.4.0.2", 80, echo_server.host,
                                            echo_server.port)])
        try:
            run = supervise(tmp_path, [
                {"op": "socket"},
                {"op": "connect", "host": "10.4.0.2", "port": 80},
                {"op": "getpeername"}] + tail, env=env)
            run.wait()
            ctl = run_control(tmp_path, [
                {"op": "socket"},
                {"op": "connect", "host": echo_server.host,
                 "port": echo_server.port}] + tail, netns="host")
        finally:
            other.close()
        assert all(r["ok"] for r in run.results("connect"))
        assert run.result("connect_raw")["ok"]
        spoofed, after = run.results("getpeername")
        assert (spoofed["addr"], spoofed["port"]) == ("10.4.0.2", 80)
        assert after == ctl.result("getpeername")
        assert after["ok"] == reconnect

    def test_getpeername_once_ended_is_the_kernels(self, tmp_path,
                                                   echo_server):
        """A rewritten connection read to EOF after its own shutdown and
        the peer's close has ended: getpeername gives ENOTCONN, as the
        same calls do unsupervised."""
        tail = [{"op": "send_pattern", "bytes": 4096}, {"op": "shutdown"},
                {"op": "recv_digest", "bytes": 4097},  # to EOF
                {"op": "getpeername"}, {"op": "close"}]
        run = supervise(tmp_path, [
            {"op": "socket"},
            {"op": "connect", "host": "10.4.0.2", "port": 80},
            {"op": "getpeername"}] + tail,
            env=to_host(echo_server.host, echo_server.port))
        run.wait()
        ctl = run_control(tmp_path, [
            {"op": "socket"},
            {"op": "connect", "host": echo_server.host,
             "port": echo_server.port}] + tail, netns="host")
        assert run.result("recv_digest") == ctl.result("recv_digest")
        assert run.result("recv_digest")["bytes"] == 4096
        spoofed, ended = run.results("getpeername")
        assert (spoofed["addr"], spoofed["port"]) == ("10.4.0.2", 80)
        assert ended == ctl.result("getpeername")
        assert (ended["ok"], ended["err"]) == (False, errno.ENOTCONN)
        assert run.sup.counters.sockets_switched == 1

    def test_dup2_over_rewritten_fd_reports_the_real_peer(self, tmp_path,
                                                           echo_server):
        hport = 18089
        env = NetEnvironment(
            container_cidrs=["10.4.0.0/24"], host_loopback_allowed=True,
            published_ports=[PublishMapping("10.4.0.2", 80, "127.0.0.1",
                                            hport)])
        srv = supervise(tmp_path, [{"op": "socket"},
                                   {"op": "bind", "host": "10.4.0.2",
                                    "port": 80},
                                   {"op": "listen"},
                                   {"op": "barrier", "name": "listening"},
                                   {"op": "serve_echo"}],
                        env=env, name="srv")
        assert srv.readline()["ok"]
        assert srv.readline()["name"] == "listening"
        srv.release_barrier()
        cli = supervise(tmp_path, [
            {"op": "socket"},
            {"op": "connect", "host": "10.4.0.2", "port": 80},
            {"op": "getpeername"},
            {"op": "socket", "sock": "s1"},
            {"op": "connect", "sock": "s1", "host": echo_server.host,
             "port": echo_server.port},
            {"op": "dup2", "sock": "s1", "to": "s0"},
            {"op": "getpeername"},
            {"op": "close"},
            {"op": "close", "sock": "s1"},
        ], env=env, name="cli")
        cli.wait()
        srv.wait()
        assert all(r["ok"] for r in cli.results("connect"))
        assert cli.sup.counters.sockets_switched == 2
        peers = [(r["addr"], r["port"]) for r in cli.results("getpeername")]
        assert peers == [("10.4.0.2", 80),
                         (echo_server.host, echo_server.port)]


def to_host(host, port):
    """10.4.0.2:80 published on the host's ``host``:``port``."""
    return NetEnvironment(
        container_cidrs=["10.4.0.0/24"],
        published_ports=[PublishMapping("10.4.0.2", 80, host, port)])


def free_port():
    """A host loopback port nothing listens on."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


EITHER_MODE = pytest.mark.parametrize("flags", [0, socket.SOCK_NONBLOCK],
                                      ids=["blocking", "nonblocking"])


class TestRewriteLeavesMemoryAlone:
    """A rewrite connects the host socket in the supervisor and answers
    with the result: the target's sockaddr buffer keeps the bytes it
    passed, and the outcome is what an unsupervised connect gives."""

    @EITHER_MODE
    def test_rewritten_connect(self, tmp_path, echo_server, flags):
        script = [{"op": "socket", "flags": flags},
                  {"op": "connect_raw", "host": "10.4.0.2", "port": 80},
                  {"op": "await_connect"},
                  {"op": "getpeername"},
                  {"op": "echo_roundtrip", "bytes": 1 << 16},
                  {"op": "close"}]
        run = supervise(tmp_path, script,
                        env=to_host(echo_server.host, echo_server.port))
        run.wait()
        connect = run.result("connect_raw")
        assert connect["sockaddr"] == pack_sockaddr_in("10.4.0.2", 80).hex()
        assert connect["err"] == (errno.EINPROGRESS if flags else 0)
        assert run.result("await_connect")["err"] == 0
        rt = run.result("echo_roundtrip")
        assert rt["sent"] == rt["received"] == 1 << 16
        assert rt["sent_digest"] == rt["recv_digest"]
        peer = run.result("getpeername")
        assert (peer["addr"], peer["port"]) == ("10.4.0.2", 80)
        assert echo_server.connections == 1
        assert run.sup.counters.sockets_switched == 1

    @EITHER_MODE
    def test_nothing_listening_on_the_host_side(self, tmp_path, flags):
        port = free_port()
        connect = {"op": "connect_raw", "host": "10.4.0.2", "port": 80}
        script = [{"op": "socket", "flags": flags}, connect,
                  {"op": "await_connect"}, {"op": "close"}]
        run = supervise(tmp_path, script, env=to_host("127.0.0.1", port))
        run.wait()
        ctl = run_control(tmp_path, [{"op": "socket", "flags": flags},
                                     dict(connect, host="127.0.0.1",
                                          port=port),
                                     {"op": "await_connect"}],
                          netns="host")
        refused = errno.ECONNREFUSED
        assert ctl.result("connect_raw")["err"] == (
            errno.EINPROGRESS if flags else refused)
        assert run.result("connect_raw")["err"] == ctl.result(
            "connect_raw")["err"]
        assert run.result("connect_raw")["sockaddr"] == pack_sockaddr_in(
            "10.4.0.2", 80).hex()
        if flags:
            assert run.result("await_connect")["err"] == refused
            assert ctl.result("await_connect")["err"] == refused


class TestInjectedSocketStaysConfined:
    """A host socket the supervisor injected lives in the host's network.
    In TCP_CLOSE again it may connect or bind only where policy would
    switch it; anything else gets EPERM, or it would reach, or listen
    where, the sandbox cannot."""

    def test_published_bind_cannot_reach_host_loopback(self, tmp_path,
                                                      echo_server):
        script = [{"op": "socket"},
                  {"op": "bind", "host": "10.4.0.2", "port": 80},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "getpeername"},
                  {"op": "close"}]
        run = supervise(tmp_path, script, env=PUBLISH_ENV(18092))
        run.wait()
        ctl = run_control(tmp_path, script)
        assert ctl.result("connect")["err"] == errno.ENETUNREACH
        assert run.result("bind")["ok"]
        assert run.result("connect")["err"] == errno.EPERM
        assert not run.result("getpeername")["ok"]
        assert echo_server.connections == 0

    def test_published_bind_still_connects_where_a_switch_would(
            self, tmp_path, echo_server):
        env = NetEnvironment(
            container_cidrs=["10.4.0.0/24"], host_loopback_allowed=True,
            published_ports=[PublishMapping("10.4.0.2", 80, "127.0.0.1",
                                            18093)])
        run = supervise(tmp_path, echo_script(
            echo_server.host, echo_server.port, 4096,
            extra_pre=[{"op": "bind", "host": "10.4.0.2", "port": 80}]),
            env=env)
        run.wait()
        assert run.result("connect")["ok"]
        rt = run.result("echo_roundtrip")
        assert rt["sent_digest"] == rt["recv_digest"]

    def test_disconnected_socket_cannot_reach_host_loopback(self, tmp_path,
                                                           echo_server):
        script = [{"op": "socket"},
                  {"op": "connect", "host": "10.4.0.2", "port": 80},
                  # AF_UNSPEC: back to TCP_CLOSE, still a host socket
                  {"op": "connect_raw", "host": "0.0.0.0", "port": 0,
                   "family": socket.AF_UNSPEC},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "close"}]
        run = supervise(tmp_path, script,
                        env=to_host(echo_server.host, echo_server.port))
        run.wait()
        assert [(r["ok"], r["err"]) for r in run.results("connect")] == [
            (True, 0), (False, errno.EPERM)]
        assert run.result("connect_raw")["ok"]

    def test_unroutable_rewrite_cannot_reach_host_loopback(self, tmp_path,
                                                           echo_server):
        # the rewrite's connect fails at once: the host socket stays unbound
        script = [{"op": "socket"},
                  {"op": "connect", "host": "10.4.0.2", "port": 80},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "close"}]
        run = supervise(tmp_path, script,
                        env=to_host("255.255.255.255", 8080))
        run.wait()
        assert [r["err"] for r in run.results("connect")] == [
            errno.ENETUNREACH, errno.EPERM]
        assert echo_server.connections == 0

    def test_refused_rewrite_cannot_listen_on_the_host(self, tmp_path):
        port = free_port()
        script = [{"op": "socket"},
                  {"op": "connect", "host": "10.4.0.2", "port": 80},
                  {"op": "bind", "host": "0.0.0.0", "port": port},
                  {"op": "close"}]
        run = supervise(tmp_path, script, env=to_host("127.0.0.1",
                                                      free_port()))
        run.wait()
        assert run.result("connect")["err"] == errno.ECONNREFUSED
        # unpublished: a listener there would take the host's connections
        assert run.result("bind")["err"] == errno.EPERM

    def test_target_in_the_host_network_is_left_alone(self, tmp_path,
                                                      echo_server):
        # its sockets live in the supervisor's namespace from the start
        script = [{"op": "socket"},
                  {"op": "bind", "host": "127.0.0.1", "port": 0},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "close"}]
        run = supervise(tmp_path, script, netns="host",
                        env=NetEnvironment(container_cidrs=["10.4.0.0/24"]))
        run.wait()
        assert run.result("connect")["ok"]


class TestRollback:
    def test_replay_failure_falls_back_to_namespace_path(
            self, tmp_path, echo_server, monkeypatch):
        def always_fail(rec, host_socket):
            raise ReplayFailed("forced by test")

        monkeypatch.setattr("b4ns.engine.replay_options", always_fail)
        script = [{"op": "socket"},
                  {"op": "connect", "host": echo_server.host,
                   "port": echo_server.port},
                  {"op": "close"}]
        run = supervise(tmp_path, script)
        run.wait()
        ctl = run_control(tmp_path, script[:2])
        # outcome identical to the unsupervised control: unreachable
        assert run.result("connect")["ok"] == ctl.result("connect")["ok"] == False
        assert run.sup.counters.sockets_switched == 0
        assert run.sup.counters.switches_rolled_back == 1
        # no half-switched registry state left behind
        for entry in run.sup.registry.snapshot():
            assert entry["status"] != "switched"


def on_thread(*ops):
    """Run ``ops`` on a new thread of the target and wait for it to end."""
    return {"op": "threads", "each": [list(ops)]}


class TestThreadsShareProcessState:
    """Notifications carry thread ids; what the supervisor holds is per
    process, and a thread's own pidfd goes when the thread exits."""

    def test_exited_threads_leave_no_state(self, tmp_path):
        n = 40
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(n + 1)  # never accepted: no fd of ours per connection
        host, port = srv.getsockname()
        each = [[{"op": "socket", "sock": f"t{i}"},
                 {"op": "connect", "sock": f"t{i}", "host": host,
                  "port": port}] for i in range(n)]
        script = [{"op": "socket"},
                  {"op": "connect", "host": host, "port": port},
                  {"op": "barrier", "name": "before"},
                  {"op": "threads", "each": each},
                  {"op": "barrier", "name": "after"}]
        run = supervise(tmp_path, script)
        sup = run.sup

        def state():
            return (len(sup.mem.pidfd_cache), len(os.listdir("/proc/self/fd")))

        try:
            assert run.readline()["ok"]
            assert run.readline()["name"] == "before"
            before = state()
            assert before[0] == 1
            run.release_barrier()
            lines = [run.readline() for _ in range(n + 1)]
            assert [l.get("ok") for l in lines[:n]] == [True] * n
            assert lines[n]["name"] == "after"
            # the target is parked; its threads' exits may still be on
            # their way to the loop
            deadline = time.monotonic() + 5
            while state() != before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert state() == before
        finally:
            run.release_barrier()
            run.wait()
            srv.close()
        assert sup.counters.sockets_switched == n + 1

    def test_option_set_on_one_thread_is_replayed_on_another(
            self, tmp_path, echo_server):
        script = [{"op": "socket"},
                  on_thread({"op": "setsockopt", "level": socket.SOL_SOCKET,
                             "optname": socket.SO_RCVBUF, "value": 50000}),
                  on_thread({"op": "connect", "host": echo_server.host,
                             "port": echo_server.port}),
                  {"op": "getsockopt", "level": socket.SOL_SOCKET,
                   "optname": socket.SO_RCVBUF},
                  {"op": "close"}]
        run = supervise(tmp_path, script)
        run.wait()
        assert run.result("connect")["ok"]
        assert run.sup.counters.sockets_switched == 1
        assert run.result("getsockopt")["value"] == 100000  # doubled

    def test_rewritten_peer_is_spoofed_on_another_thread(self, tmp_path,
                                                         echo_server):
        env = NetEnvironment(
            container_cidrs=["10.4.0.0/24"], host_loopback_allowed=True,
            published_ports=[PublishMapping("10.4.0.2", 80, echo_server.host,
                                            echo_server.port)])
        script = [{"op": "socket"},
                  on_thread({"op": "connect", "host": "10.4.0.2",
                             "port": 80}),
                  on_thread({"op": "getpeername"}),
                  {"op": "close"}]
        run = supervise(tmp_path, script, env=env)
        run.wait()
        assert run.result("connect")["ok"]
        assert run.sup.counters.sockets_switched == 1
        peer = run.result("getpeername")
        assert (peer["addr"], peer["port"]) == ("10.4.0.2", 80)

    def test_unlisted_ioctl_on_one_thread_keeps_socket_unswitched(
            self, tmp_path, echo_server):
        script = [{"op": "socket"},
                  on_thread({"op": "ioctl", "request": termios.TIOCOUTQ}),
                  on_thread({"op": "connect", "host": echo_server.host,
                             "port": echo_server.port}),
                  {"op": "close"}]
        run = supervise(tmp_path, script)
        run.wait()
        ctl = run_control(tmp_path, script)
        assert run.result("ioctl")["ok"]
        assert run.sup.counters.sockets_switched == 0
        # the unsupervised outcome: no route out of the empty namespace
        assert run.result("connect") == ctl.result("connect")
        assert not ctl.result("connect")["ok"]


@pytest.fixture(scope="module")
def static_client(tmp_path_factory):
    """tests/static_client.c, built with gcc -static -pthread."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc is absent: the static client cannot be built")
    binary = tmp_path_factory.mktemp("static") / "static_client"
    src = os.path.join(os.path.dirname(__file__), "static_client.c")
    subprocess.run([gcc, "-static", "-pthread", "-O2", "-o", str(binary),
                    src], check=True, capture_output=True)
    return binary


class TestStaticBinary:
    """A statically linked program gets a host socket too: the filter and
    the notifications it raises do not depend on its libc."""

    @pytest.mark.parametrize("mode", ["single", "thread-split"])
    def test_static_client_is_switched(self, tmp_path, echo_server,
                                       static_client, mode):
        argv = [str(static_client), mode, echo_server.host,
                str(echo_server.port)]
        run = supervise(tmp_path, [{"op": "exec", "argv": argv}])
        run.wait()
        assert run.result("static_client") == {
            "op": "static_client", "mode": mode, "set_err": 0,
            "connect_err": 0, "echoed": 25,  # the message and its NUL
            "nodelay": 1, "rcvbuf": 100000}  # SO_RCVBUF reads back doubled
        assert run.sup.counters.sockets_switched == 1
        assert echo_server.connections == 1
