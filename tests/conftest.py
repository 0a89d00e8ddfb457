import json
import os
import socket
import subprocess
import sys
import threading

import pytest

from b4ns import notify
from b4ns.engine import NetEnvironment
from b4ns.supervisor import SupervisorInstance

# one PASS/FAIL line per release criterion, filled in by the acceptance
# suite and echoed after the run (output capture would otherwise hide them)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class EchoServer:
    """Host-side echo server; echoes each connection until EOF."""

    def __init__(self, host="127.0.0.1"):
        self.srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.srv.bind((host, 0))
        self.srv.listen(16)
        self.host, self.port = self.srv.getsockname()
        self.connections = 0
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self):
        while True:
            try:
                conn, _ = self.srv.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._echo, args=(conn,), daemon=True).start()

    def _echo(self, conn):
        with conn:
            while True:
                try:
                    data = conn.recv(1 << 16)
                except OSError:
                    return
                if not data:
                    return
                conn.sendall(data)

    def close(self):
        # close alone would not wake the accept: the thread would stay, and
        # the kernel would keep listening on the port
        self.srv.shutdown(socket.SHUT_RDWR)
        self.srv.close()


@pytest.fixture
def echo_server():
    srv = EchoServer()
    yield srv
    srv.close()


class ShimRun:
    """One target shim process plus (optionally) its supervisor."""

    def __init__(self, proc, sup=None):
        self.proc = proc
        self.sup = sup
        self.lines = None
        self.stderr = None

    def readline(self):
        return json.loads(self.proc.stdout.readline())

    def release_barrier(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()

    def wait(self, timeout=60):
        out, err = self.proc.communicate(timeout=timeout)
        self.stderr = err
        self.lines = [json.loads(l) for l in out.splitlines()]
        if self.sup is not None:
            self.sup.join(10)
        return self

    def results(self, op):
        assert self.lines is not None, "call wait() first"
        return [l for l in self.lines if l.get("op") == op]

    def result(self, op):
        found = self.results(op)
        assert len(found) == 1, f"expected one {op!r} result, got {found}"
        return found[0]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            pipe.close()


def launch_shim(tmp_path, script, name="t", handoff=None, netns="new",
                no_filter=False, lo_up=False):
    sf = tmp_path / f"{name}.json"
    sf.write_text(json.dumps(script))
    cmd = [sys.executable, "-m", "b4ns.target_shim",
           "--netns", netns, "--script", str(sf)]
    if lo_up:
        cmd.append("--lo-up")
    if no_filter:
        cmd.append("--no-filter")
    else:
        cmd += ["--handoff", str(handoff)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.PIPE, text=True)
    return proc


def supervise(tmp_path, script, env=None, name="t", netns="new",
              keep_audit=False, lo_up=False, **sup_kwargs):
    """Launch a supervised shim and a running supervisor for it."""
    if env is None:
        env = NetEnvironment(container_cidrs=["10.99.0.0/24"],
                             host_loopback_allowed=True)
    handoff = tmp_path / f"{name}.sock"
    proc = launch_shim(tmp_path, script, name=name, handoff=handoff,
                       netns=netns, lo_up=lo_up)
    chan = notify.attach(str(handoff), timeout=10)
    sup = SupervisorInstance(chan, env, keep_audit=keep_audit, **sup_kwargs)
    sup.start()
    return ShimRun(proc, sup)


def run_control(tmp_path, script, name="c", netns="new", lo_up=False):
    """Same script, unsupervised (control runs for differential tests)."""
    proc = launch_shim(tmp_path, script, name=name, netns=netns,
                       no_filter=True, lo_up=lo_up)
    return ShimRun(proc).wait()
