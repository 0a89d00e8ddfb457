"""Notification channel: handoff, responses, cookie handling, and the
installed filter's exactness against a live supervised process."""

import array
import errno
import fcntl
import os
import socket
import struct
import subprocess
import sys
import termios
import threading
import time

import pytest

from b4ns import notify, targetmem
from b4ns.engine import NetEnvironment
from b4ns.errors import (
    ChannelClosed,
    HandoffFailed,
    StaleCookie,
    UnsupportedKernel,
)
from b4ns.notify import (
    ACK_BYTE,
    IOCTL_NOTIF_ADDFD,
    IOCTL_NOTIF_ID_VALID,
    IOCTL_NOTIF_SEND,
    NotificationChannel,
    Response,
)
from b4ns.supervisor import SupervisorInstance
from b4ns.sysnr import HOOKED_SYSCALLS

from conftest import ShimRun, launch_shim, run_control, supervise
from fakes import make_event


def fake_ioctl(behaviour):
    """behaviour maps ioctl request -> errno to raise (None = succeed)."""
    calls = []

    def fn(fd, request, arg=0, mutate=False):
        calls.append((request, bytes(arg) if isinstance(arg, (bytes, bytearray)) else arg))
        err = behaviour.get(request, None)
        if err is not None:
            raise OSError(err, os.strerror(err))
        return 0

    fn.calls = calls
    return fn


class TestResponse:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Response("maybe")

    def test_constructors(self):
        assert Response.cont().kind == "continue"
        assert Response.success(7).value == 7
        assert Response.failure(errno.EINVAL).err == errno.EINVAL

    def test_continue_is_one_shared_constant(self):
        assert Response.cont() is Response.cont()


class TestChannelUnit:
    def _chan(self, behaviour):
        fd = os.open("/dev/null", os.O_RDONLY)
        return NotificationChannel(fd, ioctl_fn=fake_ioctl(behaviour))

    def test_validate_false_on_dead_cookie(self):
        chan = self._chan({IOCTL_NOTIF_ID_VALID: errno.ENOENT})
        assert chan.validate(make_event(cookie=5)) is False
        chan.close()

    def test_double_respond_raises(self):
        chan = self._chan({})
        ev = make_event(cookie=9)
        chan.respond(ev, Response.cont())
        with pytest.raises(StaleCookie):
            chan.respond(ev, Response.cont())
        chan.close()

    def test_failed_send_leaves_the_fallback_answer_open(self):
        # a SEND the kernel refused answered nothing: the run loop's
        # fallback CONTINUE must still reach the kernel
        ioctl = fake_ioctl({})
        failures = [errno.EIO]

        def send_fails_once(fd, request, arg=0, mutate=False):
            if request == IOCTL_NOTIF_SEND and failures:
                err = failures.pop()
                raise OSError(err, os.strerror(err))
            return ioctl(fd, request, arg, mutate)

        chan = NotificationChannel(os.open("/dev/null", os.O_RDONLY),
                                   ioctl_fn=send_fails_once)
        ev = make_event(cookie=31)
        with pytest.raises(OSError):
            chan.respond(ev, Response.success(0))
        chan.respond(ev, Response.cont())
        sends = [struct.unpack("<QqiI", a) for r, a in ioctl.calls
                 if r == IOCTL_NOTIF_SEND]
        assert sends == [(31, 0, 0, 1)]
        chan.close()

    def test_stale_cookie_on_respond_is_swallowed(self):
        chan = self._chan({IOCTL_NOTIF_SEND: errno.ENOENT})
        chan.respond(make_event(cookie=11), Response.success(0))
        chan.close()

    def test_inject_fd_stale_cookie_raises(self):
        chan = self._chan({IOCTL_NOTIF_ADDFD: errno.ENOENT})
        with pytest.raises(StaleCookie):
            chan.inject_fd(make_event(cookie=13), 3, 4)
        chan.close()

    def test_continue_response_wire_format(self):
        ioctl = fake_ioctl({})
        fd = os.open("/dev/null", os.O_RDONLY)
        chan = NotificationChannel(fd, ioctl_fn=ioctl)
        chan.respond(make_event(cookie=21), Response.cont())
        sends = [a for r, a in ioctl.calls if r == IOCTL_NOTIF_SEND]
        assert len(sends) == 1
        cookie, val, err, flags = struct.unpack("<QqiI", sends[0])
        assert (cookie, val, err, flags) == (21, 0, 0, 1)
        chan.close()

    def test_error_response_wire_format(self):
        ioctl = fake_ioctl({})
        fd = os.open("/dev/null", os.O_RDONLY)
        chan = NotificationChannel(fd, ioctl_fn=ioctl)
        chan.respond(make_event(cookie=22), Response.failure(errno.ECONNREFUSED))
        sends = [a for r, a in ioctl.calls if r == IOCTL_NOTIF_SEND]
        cookie, val, err, flags = struct.unpack("<QqiI", sends[0])
        assert (cookie, val, err, flags) == (22, 0, -errno.ECONNREFUSED, 0)
        chan.close()


class TestNextEvent:
    """The poll branches of ``next_event``, over a pipe's read end."""

    def test_closed_fd_means_channel_closed(self):
        r, w = os.pipe()
        chan = NotificationChannel(r)
        os.close(r)
        try:
            with pytest.raises(ChannelClosed):
                chan.next_event(timeout=1.0)
        finally:
            os.close(w)

    def test_nothing_ready_times_out(self):
        r, w = os.pipe()
        chan = NotificationChannel(r)
        try:
            with pytest.raises(TimeoutError):
                chan.next_event(timeout=0.01)
        finally:
            chan.close()
            os.close(w)

    def test_hangup_means_channel_closed(self):
        r, w = os.pipe()
        chan = NotificationChannel(r)
        os.close(w)
        try:
            with pytest.raises(ChannelClosed):
                chan.next_event(timeout=1.0)
        finally:
            chan.close()

    def test_wake_from_another_thread_ends_an_unbounded_wait(self):
        # the wake is the owner's stop fd, written from another thread
        r, w = os.pipe()
        stop_fd = os.eventfd(0)
        chan = NotificationChannel(r, stop_fd=stop_fd)
        stopped = []

        def stop():
            stopped.append(time.monotonic())
            os.eventfd_write(stop_fd, 1)

        threading.Timer(0.05, stop).start()
        # a missed stop would leave the wait to this write, which fails it
        late = threading.Timer(2.0, os.write, (w, b"x"))
        late.start()
        try:
            with pytest.raises(ChannelClosed):
                chan.next_event(timeout=None)
            assert time.monotonic() - stopped[0] < 0.1
            # stopping is final: a later wait ends at once too
            with pytest.raises(ChannelClosed):
                chan.next_event(timeout=1.0)
        finally:
            late.cancel()
            chan.close()
            os.close(w)
            os.close(stop_fd)

    def test_wake_after_close_is_harmless(self):
        r, w = os.pipe()
        stop_fd = os.eventfd(0)
        chan = NotificationChannel(r, stop_fd=stop_fd)
        chan.close()
        # a second close does nothing, to whatever reuses the fd number
        os.dup2(w, r)
        chan.close()
        os.fstat(r)
        os.close(r)
        os.close(w)
        # the stop fd is its owner's: the channel leaves it open, and
        # writing it after the close is harmless
        os.eventfd_write(stop_fd, 1)
        os.close(stop_fd)

    def test_exit_of_a_watched_process_runs_its_callback_once(self):
        r, w = os.pipe()
        chan = NotificationChannel(r)
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        pidfd = os.pidfd_open(proc.pid)
        exited = []
        chan.watch(pidfd, lambda: exited.append(proc.pid))
        proc.wait()
        try:
            # the callback runs inside the wait, which goes on waiting
            with pytest.raises(TimeoutError):
                chan.next_event(timeout=0.5)
            assert exited == [proc.pid]
            with pytest.raises(TimeoutError):
                chan.next_event(timeout=0.01)
            assert exited == [proc.pid]
        finally:
            chan.close()
            os.close(w)
            os.close(pidfd)

    def test_hangup_runs_pending_exit_callbacks_first(self):
        # the notify fd hangs up before the exiting tasks' pidfds turn
        # readable; a pipe that never does stands for such a pidfd
        r, w = os.pipe()
        chan = NotificationChannel(r)
        pr, pw = os.pipe()
        exited = []
        chan.watch(pr, lambda: exited.append(pr))
        os.close(w)
        try:
            with pytest.raises(ChannelClosed):
                chan.next_event(timeout=1.0)
            assert exited == [pr]
        finally:
            chan.close()
            os.close(pr)
            os.close(pw)

    @pytest.mark.parametrize("end", ["ready", "hangup"])
    def test_a_callback_may_unwatch_another_pending_fd(self, end):
        # a process's exit callback drops its threads' pidfds, which may be
        # ready in the same poll, or pending when the notify fd hangs up
        r, w = os.pipe()
        chan = NotificationChannel(r)
        fds = [os.eventfd(1 if end == "ready" else 0) for _ in range(2)]
        ran = []
        for mine, other in (fds, fds[::-1]):
            chan.watch(mine, lambda m=mine, o=other: (ran.append(m),
                                                      chan.unwatch(o)))
        if end == "hangup":
            os.close(w)
        try:
            with pytest.raises(TimeoutError if end == "ready"
                               else ChannelClosed):
                chan.next_event(timeout=0.1)
            assert len(ran) == 1
        finally:
            chan.close()
            if end == "ready":
                os.close(w)
            for fd in fds:
                os.close(fd)


class TestAttach:
    def _handoff_client(self, path, send_fd=True, payload=b"\x00"):
        """Connect like the runtime would and optionally pass an fd."""
        result = {}

        def run():
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            for _ in range(200):
                try:
                    conn.connect(path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    import time
                    time.sleep(0.01)
            anc = []
            if send_fd:
                fd = os.open("/dev/null", os.O_RDONLY)
                result["sent_fd"] = fd
                anc = [(socket.SOL_SOCKET, socket.SCM_RIGHTS,
                        array.array("i", [fd]))]
            conn.sendmsg([payload], anc)
            result["ack"] = conn.recv(1)
            conn.close()

        t = threading.Thread(target=run)
        t.start()
        return t, result

    def test_happy_path_acks_and_returns_channel(self, tmp_path):
        path = str(tmp_path / "h.sock")
        t, result = self._handoff_client(path)
        chan = notify.attach(path, timeout=5)
        t.join()
        assert result["ack"] == ACK_BYTE
        chan.close()

    def test_timeout_without_runtime(self, tmp_path):
        with pytest.raises(HandoffFailed):
            notify.attach(str(tmp_path / "h.sock"), timeout=0.2)

    def test_message_without_fd_fails(self, tmp_path):
        path = str(tmp_path / "h.sock")
        t, result = self._handoff_client(path, send_fd=False)
        with pytest.raises(HandoffFailed):
            notify.attach(path, timeout=5)
        t.join()
        assert result.get("ack") in (b"", None)

    def test_this_kernel_meets_the_floor(self):
        targetmem.check_kernel()

    @pytest.mark.parametrize("missing", ["pidfd_thread", "pidfd_get_info"])
    def test_kernel_below_the_floor_is_refused(self, tmp_path, monkeypatch,
                                               missing):
        """A kernel without PIDFD_THREAD (before 6.9) rejects the flag with
        EINVAL; one without PIDFD_GET_INFO (before 6.13) the ioctl with
        ENOTTY.  Either is refused before anything listens."""
        def fails(err):
            def fn(*args):
                raise OSError(err, os.strerror(err))
            return fn

        if missing == "pidfd_thread":
            monkeypatch.setattr(os, "pidfd_open", fails(errno.EINVAL))
        else:
            monkeypatch.setattr(fcntl, "ioctl", fails(errno.ENOTTY))
        path = tmp_path / "h.sock"
        with pytest.raises(UnsupportedKernel):
            notify.attach(str(path), timeout=5)
        assert not path.exists()


class TestLiveFilter:
    """Against a real supervised process: the installed filter must notify
    on exactly the hooked set and each event gets exactly one verdict."""

    def test_storm_of_unhooked_syscalls_produces_no_events(self, tmp_path,
                                                           echo_server):
        script = [
            {"op": "storm", "count": 2000},
            {"op": "socket"},
            {"op": "connect", "host": echo_server.host, "port": echo_server.port},
            {"op": "close"},
        ]
        run = supervise(tmp_path, script, netns="host", keep_audit=True)
        run.wait()
        assert run.result("storm")["ok"]
        names = {name for _, name, _ in run.sup.audit}
        assert names <= set(HOOKED_SYSCALLS)
        # the storm itself (getpid/getppid/urandom reads) never notified
        assert run.sup.counters.events_handled == len(run.sup.audit)

    def test_handoff_completes_when_the_supervisor_binds_late(
            self, tmp_path, echo_server):
        """The shim starts first and retries its connect to the handoff
        socket until the supervisor binds it, here about 100 ms later."""
        script = [
            {"op": "socket"},
            {"op": "connect", "host": echo_server.host, "port": echo_server.port},
            {"op": "close"},
        ]
        handoff = tmp_path / "late.sock"
        proc = launch_shim(tmp_path, script, name="late", handoff=handoff,
                           netns="host")
        time.sleep(0.1)
        chan = notify.attach(str(handoff), timeout=10)
        sup = SupervisorInstance(chan, NetEnvironment(
            container_cidrs=["10.99.0.0/24"], host_loopback_allowed=True))
        sup.start()
        run = ShimRun(proc, sup).wait()
        assert run.result("connect")["ok"], run.stderr
        assert run.results("done")
        assert sup.counters.sockets_switched == 1

    def test_each_event_handled_exactly_once(self, tmp_path, echo_server):
        script = [
            {"op": "socket"},
            {"op": "setsockopt", "level": socket.SOL_SOCKET,
             "optname": socket.SO_KEEPALIVE, "value": 1},
            {"op": "connect", "host": echo_server.host, "port": echo_server.port},
            {"op": "getpeername"},
            {"op": "close"},
        ]
        run = supervise(tmp_path, script, netns="host", keep_audit=True)
        run.wait()
        cookies = [c for c, _, _ in run.sup.audit]
        assert len(cookies) == len(set(cookies))
        assert run.sup.counters.events_handled == len(cookies)

    def test_concurrent_threads_get_distinct_cookies(self, tmp_path,
                                                     echo_server):
        each = [[{"op": "socket", "sock": f"s{i}"},
                 {"op": "connect", "sock": f"s{i}", "host": echo_server.host,
                  "port": echo_server.port},
                 {"op": "close", "sock": f"s{i}"}] for i in range(4)]
        run = supervise(tmp_path, [{"op": "threads", "each": each}],
                        netns="host", keep_audit=True)
        run.wait()
        results = run.results("connect")
        assert len(results) == 4 and all(r["ok"] for r in results)
        cookies = [c for c, _, _ in run.sup.audit]
        assert len(cookies) == len(set(cookies))
        assert run.sup.counters.sockets_switched == 4

    def test_read_only_fcntl_and_ioctl_never_notify(self, tmp_path):
        script = [
            {"op": "socket"},
            {"op": "fcntl_getfl"},
            {"op": "fcntl", "cmd": fcntl.F_GETFD},
            {"op": "ioctl", "request": termios.FIONREAD},
            {"op": "ioctl", "request": termios.TCGETS},
            {"op": "set_nonblock"},
            {"op": "close"},
        ]
        run = supervise(tmp_path, script, netns="host", keep_audit=True)
        run.wait()
        assert [r["ok"] for r in run.results("ioctl")] == [True, False]
        names = [name for _, name, _ in run.sup.audit]
        # fcntl is unhooked, set_nonblock's F_SETFL included
        assert names.count("fcntl") == 0
        assert "ioctl" not in names
