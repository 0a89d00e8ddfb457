"""One benchmark session: the host peer, the target and, when supervised,
the supervisor, each in its own process.

All three are launched together (the orchestrator binds the peer's
listening socket first and passes it down, so the published port is known
up front).  Set-up time runs from the first launch until the target reports
that the supervisor acked the handoff.  Every process is stopped and
reaped before ``run_session`` returns.
"""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
GRACE_S = 60  # beyond the session's own length, for start-up and teardown


class SessionFailed(Exception):
    pass


class _Lines:
    """JSON lines from a child's stdout, read against a deadline."""

    def __init__(self, proc):
        self.proc = proc
        self.buf = b""
        self.eof = False

    def _fill(self, deadline):
        fd = self.proc.stdout.fileno()
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise SessionFailed(f"{self.proc.args[1]} timed out")
        chunk = os.read(fd, 1 << 20)
        self.buf += chunk
        self.eof = not chunk

    def next(self, deadline):
        while b"\n" not in self.buf:
            if self.eof:
                raise SessionFailed(f"{self.proc.args[1]} ended early")
            self._fill(deadline)
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def last(self, deadline):
        while not self.eof:
            self._fill(deadline)
        lines = self.buf.splitlines()
        if not lines:
            raise SessionFailed(f"{self.proc.args[1]} printed nothing")
        return json.loads(lines[-1])


def _spawn(script, *args, **kwargs):
    return subprocess.Popen([sys.executable, str(HERE / script), *map(str, args)],
                            stdin=subprocess.DEVNULL, **kwargs)


def _stop(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def run_session(workdir, name, spec, spec_path, seconds, supervised,
                traced=False):
    """Run one session; returns its target report, supervisor report (or
    None), set-up time and, when traced, the path of its spans file."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind((common.HOST_ADDR, 0))
    listener.listen(64)
    port = listener.getsockname()[1]
    cfg = {"spec": str(spec_path), "supervised": supervised,
           "handoff": f"{name}.sock", "peer_port": port, "seconds": seconds,
           "data_file": str(workdir / f"{name}.dat")}
    cfg_path = workdir / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    spans = workdir / f"{name}.spans" if traced else None
    deadline = time.monotonic() + seconds + GRACE_S
    procs = []
    try:
        launched = time.monotonic_ns()
        role = "stream" if spec["workload"] == "stream" else "echo"
        procs.append(_spawn("peer.py", "--role", role, "--seed", spec["seed"],
                            "--fd", listener.fileno(),
                            pass_fds=[listener.fileno()]))
        sup = None
        if supervised:
            sup_args = ["--handoff", cfg["handoff"], "--peer-port", port]
            if spans is not None:
                sup_args += ["--spans", spans.name]
            sup = _spawn("supervise.py", *sup_args, cwd=workdir,
                         stdout=subprocess.PIPE)
            procs.append(sup)
        target = _spawn("target.py", "--config", cfg_path, cwd=workdir,
                        stdout=subprocess.PIPE)
        procs.append(target)
        listener.close()
        out = _Lines(target)
        setup_ns = out.next(deadline)["ready_ns"] - launched
        report = out.last(deadline)
        try:
            status = target.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise SessionFailed("target did not exit") from None
        if status:
            raise SessionFailed(f"target exited with {status}")
        sup_report = _Lines(sup).last(deadline) if sup is not None else None
        return {"target": report, "sup": sup_report, "setup_ns": setup_ns,
                "spans": spans}
    finally:
        listener.close()
        _stop(procs)
