"""The supervisor's kernel crossings, counted per path.

A supervisor runs in its own process.  Once it has attached, it prints
its channel's fd number and installs a one-instruction filter on itself
that sends every syscall it makes to user-space notification.  The test
takes that second listener with pidfd_getfd, continues every call and
counts the calls by syscall number between one wake-up ``poll`` and the
next: one notification's handling.  Memory-management calls (``brk``,
``mmap``, ``munmap``, ``madvise``) follow the allocator, not the code
path, and are left out.

The target shim stays in the host's network namespace (``--netns host``:
no namespace or device is made) and runs each path ROUNDS times on one fd
number, closing the socket after each round, as a connection-churning
client does.  The first round pays for what a process's first sight
opens; the last two must match each other and the counts below.
"""

import collections
import json
import os
import subprocess
import sys
import time
from socket import AF_UNSPEC, SOCK_DGRAM, SOCK_STREAM

import pytest

import b4ns
from b4ns.errors import ChannelClosed
from b4ns.notify import (
    IOCTL_NOTIF_ADDFD,
    IOCTL_NOTIF_ID_VALID,
    IOCTL_NOTIF_RECV,
    IOCTL_NOTIF_SEND,
    NotificationChannel,
    Response,
)
from b4ns.targetmem import MemService

from conftest import EchoServer, launch_shim

SRC = os.path.dirname(b4ns.__path__[0])

ROUNDS = 3

# allocator calls, left out of every count
MEMORY_NRS = {12: "brk", 9: "mmap", 11: "munmap", 28: "madvise"}
IOCTL = 16
NAMES = {
    3: "close", 7: "poll", 17: "pread64", 18: "pwrite64", 41: "socket",
    42: "connect", 49: "bind", 51: "getsockname", 52: "getpeername",
    54: "setsockopt", 55: "getsockopt", 72: "fcntl", 262: "newfstatat",
    438: "pidfd_getfd",
}
IOCTLS = {
    IOCTL_NOTIF_RECV: "ioctl:recv", IOCTL_NOTIF_SEND: "ioctl:send",
    IOCTL_NOTIF_ID_VALID: "ioctl:id_valid", IOCTL_NOTIF_ADDFD: "ioctl:addfd",
}

CONTAINER = "10.99.0.0/24"
REWRITTEN = ("10.99.0.2", 80)   # published: rewritten to the echo server
PUBLISHED = ("10.99.0.3", 8080)  # a bind here is switched to 127.0.0.1:0
IGNORED = "127.0.0.2"           # a container address without a mapping

SUPERVISOR = """
import ctypes, sys
from b4ns import bpf, notify
from b4ns.engine import NetEnvironment, PublishMapping
from b4ns.supervisor import SupervisorInstance

handoff, port = sys.argv[1], int(sys.argv[2])
env = NetEnvironment(
    container_cidrs=[%(container)r, %(ignored)r + "/32"],
    published_ports=[PublishMapping(*%(rewritten)r, "127.0.0.1", port),
                     PublishMapping(*%(published)r, "127.0.0.1", 0)],
    host_loopback_allowed=True)
chan = notify.attach(handoff, timeout=30)
sup = SupervisorInstance(chan, env)
print(chan.fd, flush=True)
libc = ctypes.CDLL(None, use_errno=True)
insn = bpf.SockFilter(bpf.BPF_RET | bpf.BPF_K, 0, 0,
                      bpf.SECCOMP_RET_USER_NOTIF)
prog = bpf.SockFprog(1, ctypes.pointer(insn))
if libc.prctl(bpf.PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0 or libc.syscall(
        bpf.SYS_seccomp, bpf.SECCOMP_SET_MODE_FILTER,
        bpf.SECCOMP_FILTER_FLAG_NEW_LISTENER, ctypes.byref(prog)) < 0:
    sys.exit("counting filter refused: errno %%d" %% ctypes.get_errno())
sup.run()
""" % {"container": CONTAINER, "ignored": IGNORED, "rewritten": REWRITTEN,
       "published": PUBLISHED}

REWRITE = {"op": "connect", "host": REWRITTEN[0], "port": REWRITTEN[1]}
# the rewritten connect; the record the last round's rewrite kept is found
# stale by its inode (newfstatat), and the new one needs the host socket's
REWRITE_CONNECT = {
    "ioctl:recv": 1, "pidfd_getfd": 1, "newfstatat": 2, "getsockname": 2,
    "getsockopt": 9, "pread64": 2, "ioctl:id_valid": 1, "socket": 1,
    "connect": 1, "fcntl": 1, "ioctl:addfd": 1, "close": 2,
    "ioctl:send": 1}

# path -> (its ops after the socket op, then the socket is closed; the
# count each of its notifications makes in a steady round)
PATHS = {
    # README step 4
    "plain": ([{"op": "connect", "host": "127.0.0.1", "port": "ECHO"}], [{
        "ioctl:recv": 1, "pidfd_getfd": 1, "getsockname": 2,
        "getsockopt": 8, "pread64": 2, "ioctl:id_valid": 1, "socket": 1,
        "ioctl:addfd": 1, "close": 2, "ioctl:send": 1}]),
    # step 5
    "rewrite": ([REWRITE, {"op": "getpeername"}], [REWRITE_CONNECT, {
        "ioctl:recv": 1, "pidfd_getfd": 1, "newfstatat": 1,
        "getsockname": 1, "getpeername": 1, "pread64": 1, "pwrite64": 2,
        "close": 1, "ioctl:send": 1}]),
    # a rewritten socket disconnected (AF_UNSPEC, continued: it is not in
    # TCP_CLOSE), then asked its peer: the duplicate's ENOTCONN answers
    "disconnected": ([REWRITE, {"op": "connect_raw", "host": "0.0.0.0",
                                "port": 0, "family": AF_UNSPEC},
                      {"op": "getpeername"}], [REWRITE_CONNECT, {
        "ioctl:recv": 1, "pidfd_getfd": 1, "newfstatat": 1,
        "getsockname": 1, "getsockopt": 1, "close": 1, "ioctl:send": 1}, {
        "ioctl:recv": 1, "pidfd_getfd": 1, "newfstatat": 1,
        "getsockname": 1, "getpeername": 1, "close": 1,
        "ioctl:send": 1}]),
    # the target shares the supervisor's namespace here, so the injected
    # check reads the namespace cookie and stats /proc/<pid>/ns/net, where
    # a container's socket would fail at the cookie; the one TCP_INFO read
    # serves it as it serves the switch test
    "ignore": ([{"op": "connect", "host": IGNORED, "port": "ECHO"}], [{
        "ioctl:recv": 1, "pidfd_getfd": 1, "getsockname": 2,
        "getsockopt": 2, "pread64": 1, "ioctl:id_valid": 1,
        "newfstatat": 1, "close": 1, "ioctl:send": 1}]),
    # not TCP: its failed TCP_INFO read continues it, as it does a glibc
    # resolver's connect for each query
    "udp": ([{"op": "connect", "host": IGNORED, "port": "ECHO"}], [{
        "ioctl:recv": 1, "pidfd_getfd": 1, "getsockname": 1,
        "getsockopt": 1, "close": 1, "ioctl:send": 1}]),
    "bind": ([{"op": "bind", "host": PUBLISHED[0], "port": PUBLISHED[1]}], [{
        "ioctl:recv": 1, "pidfd_getfd": 1, "getsockname": 2,
        "getsockopt": 8, "pread64": 2, "ioctl:id_valid": 1, "socket": 1,
        "setsockopt": 1, "bind": 1, "ioctl:addfd": 1, "close": 2,
        "ioctl:send": 1}]),
}


# the socket type a path's socket op makes, where not SOCK_STREAM
SOCKET_TYPES = {"udp": SOCK_DGRAM}


def _name(event):
    if event.syscall_nr == IOCTL:
        return IOCTLS.get(event.args[1] & 0xFFFFFFFF, "ioctl")
    return NAMES.get(event.syscall_nr, f"nr{event.syscall_nr}")


def _take_listener(sup, chan_fd):
    """The supervisor's own seccomp listener, once it has one, duplicated
    here with pidfd_getfd: the notify fd whose number is not its
    channel's."""
    fd_dir = f"/proc/{sup.pid}/fd"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        for name in os.listdir(fd_dir):
            try:
                link = os.readlink(f"{fd_dir}/{name}")
            except FileNotFoundError:
                continue
            if link == "anon_inode:seccomp notify" and int(name) != chan_fd:
                svc = MemService()
                try:
                    # the counting channel owns the duplicate from here
                    return svc.acquire_fd(sup.pid, int(name)).local_fd
                finally:
                    svc.close()
        time.sleep(0.005)
    raise TimeoutError("the supervisor installed no counting filter")


def count_windows(tmp_path, script, echo_port):
    """Run ``script`` under a counted supervisor.  Returns one Counter per
    notification it handled, in order: the calls after the wake-up poll,
    from the receive through the response."""
    handoff = tmp_path / "count.sock"
    sup = subprocess.Popen(
        [sys.executable, "-c", SUPERVISOR, str(handoff), str(echo_port)],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    shim = None
    try:
        shim = launch_shim(tmp_path, script, handoff=handoff, netns="host")
        chan_fd = int(sup.stdout.readline())
        counter = NotificationChannel(_take_listener(sup, chan_fd))
        calls = []
        try:
            while True:
                try:
                    event = counter.next_event(timeout=30)
                except ChannelClosed:  # the supervisor exited
                    break
                if event.syscall_nr not in MEMORY_NRS:
                    calls.append(_name(event))
                counter.respond(event, Response.cont())
        finally:
            counter.close()
        _, err = shim.communicate(timeout=30)
        assert shim.returncode == 0, err
        assert sup.wait(timeout=30) == 0
    finally:
        for proc in (shim, sup):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        if shim is not None:
            for pipe in (shim.stdin, shim.stdout, shim.stderr):
                pipe.close()
        sup.stdout.close()
    windows, current = [], None
    for name in calls:
        if name == "poll":
            current = []
            windows.append(current)
        elif current is not None:
            current.append(name)
    return [collections.Counter(w) for w in windows
            if w[:1] == ["ioctl:recv"]]


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """Every path's rounds, under one counted supervisor: one list of
    per-round notification counts per path."""
    echo = EchoServer()
    try:
        return _count_paths(tmp_path_factory.mktemp("crossings"), echo.port)
    finally:
        echo.close()


def _script(port, rounds):
    """Each path's rounds in PATHS order, ECHO replaced by ``port``."""
    script = []
    for path, (ops, _) in PATHS.items():
        ops = [dict(op, port=port) if op.get("port") == "ECHO" else op
               for op in ops]
        opener = {"op": "socket", "type": SOCKET_TYPES.get(path, SOCK_STREAM)}
        script += ([opener] + ops + [{"op": "close"}]) * rounds
    return script


def _count_paths(tmp_path, port):
    per_round = {path: len(expected) for path, (_, expected) in PATHS.items()}
    windows = count_windows(tmp_path, _script(port, ROUNDS), port)
    assert len(windows) == sum(per_round.values()) * ROUNDS
    rounds = {}
    for path, n in per_round.items():
        taken, windows = windows[:n * ROUNDS], windows[n * ROUNDS:]
        rounds[path] = [taken[i:i + n] for i in range(0, len(taken), n)]
    return rounds


@pytest.mark.parametrize("path", list(PATHS))
def test_steady_round_makes_the_pinned_crossings(counted, path):
    *_, second_last, last = counted[path]
    assert last == second_last
    assert [dict(c) for c in last] == PATHS[path][1]


def test_plain_switch_makes_20_after_the_wakeup_poll(counted):
    (plain,) = counted["plain"][-1]
    assert sum(plain.values()) == 20


# ``b4ns attach`` in a fresh interpreter; prints its counters, then whether
# the session loaded logging
ATTACH = """
import sys
from b4ns import cli
code = cli.main_b4ns(sys.argv[1:])
print("logging" in sys.modules, flush=True)
sys.exit(code)
"""


def test_a_clean_session_never_loads_logging(tmp_path):
    """``b4ns attach``, with the environment SUPERVISOR builds, supervises
    each path once: nothing goes wrong, so nothing is logged, and the
    session ends without having imported logging."""
    echo = EchoServer()
    handoff = tmp_path / "attach.sock"
    sup = subprocess.Popen(
        [sys.executable, "-c", ATTACH, "attach", "--handoff", str(handoff),
         "--cidr", CONTAINER, "--cidr", IGNORED + "/32",
         "--container-addr", REWRITTEN[0], "--host-addr", "127.0.0.1",
         "--publish", f"{echo.port}:{REWRITTEN[1]}",
         "--publish", f"0:{PUBLISHED[1]}", "--allow-host-loopback"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    shim = None
    try:
        shim = launch_shim(tmp_path, _script(echo.port, 1), handoff=handoff,
                           netns="host")
        _, err = shim.communicate(timeout=30)
        assert shim.returncode == 0, err
        out, _ = sup.communicate(timeout=30)
    finally:
        for proc in (shim, sup):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.communicate()
        if shim is not None:
            shim.stdin.close()
        echo.close()
    assert sup.returncode == 0
    *_, counters, loaded = out.splitlines()
    # the plain switch, the two rewrites and the bind
    assert json.loads(counters)["sockets_switched"] == 4
    assert loaded == "False"
