"""Connectivity probe agents and the supervisor-side result cache.

Agents run inside each sandbox's network namespace, bind probe responders
adjacent to the published ports (published port + a fixed offset, with a
magic handshake so responders can never be confused with application
listeners), and answer probe requests from the supervisor over a local
control socket.  Probing is how policy is discovered: an unreachable or
unknown pair is never switched.
"""

import argparse
import ctypes
import json
import logging
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

from .errors import NamespaceUnavailable

log = logging.getLogger(__name__)

MAGIC = b"B4NS-PROBE\x01"
PROBE_PORT_OFFSET = 10000
DEFAULT_PERIOD = 5.0
FRESHNESS_FACTOR = 3.0

_libc = ctypes.CDLL(None, use_errno=True)
CLONE_NEWNET = 0x40000000


def _send_frame(sock, obj):
    data = json.dumps(obj).encode()
    sock.sendall(struct.pack("!I", len(data)) + data)


def _recv_frame(sock):
    hdr = b""
    while len(hdr) < 4:
        chunk = sock.recv(4 - len(hdr))
        if not chunk:
            return None
        hdr += chunk
    (n,) = struct.unpack("!I", hdr)
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            return None
        data += chunk
    return json.loads(data)


@dataclass
class ProbeResult:
    src: str
    dst: str
    dst_port: int
    reachable: Optional[bool]  # None = unknown
    checked_at: float


# ---------------------------------------------------------------------------
# agent process (runs inside the sandbox namespace)

def _enter_netns(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        if _libc.setns(fd, CLONE_NEWNET) != 0:
            raise OSError(ctypes.get_errno(), f"setns({path})")
    finally:
        os.close(fd)


def _responder(port, bind_addr):
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((bind_addr, port + PROBE_PORT_OFFSET))
    srv.listen(8)

    def loop():
        while True:
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            with conn:
                try:
                    conn.settimeout(2.0)
                    if conn.recv(len(MAGIC)) == MAGIC:
                        conn.sendall(MAGIC)
                except OSError:
                    pass

    threading.Thread(target=loop, daemon=True).start()
    return srv


def _do_probe(dst, port, timeout=1.0):
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect((dst, port + PROBE_PORT_OFFSET))
        s.sendall(MAGIC)
        return s.recv(len(MAGIC)) == MAGIC
    except OSError:
        return False
    finally:
        s.close()


def agent_main(argv=None):
    ap = argparse.ArgumentParser(prog="b4ns-probe-agent")
    ap.add_argument("--control", required=True)
    ap.add_argument("--netns", default=None)
    ap.add_argument("--bind-addr", default="0.0.0.0")
    ap.add_argument("--ports", default="")
    args = ap.parse_args(argv)

    if args.netns:
        _enter_netns(args.netns)
    ports = [int(p) for p in args.ports.split(",") if p]
    responders = [_responder(p, args.bind_addr) for p in ports]

    try:
        os.unlink(args.control)
    except FileNotFoundError:
        pass
    ctl = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    ctl.bind(args.control)
    ctl.listen(8)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while True:
        conn, _ = ctl.accept()
        with conn:
            conn.settimeout(5.0)
            req = _recv_frame(conn)
            if req is None:
                continue
            if req.get("op") == "ping":
                _send_frame(conn, {"ok": True, "ports": ports})
            elif req.get("op") == "probe":
                ok = _do_probe(req["dst"], req["port"])
                _send_frame(conn, {"reachable": ok})
            elif req.get("op") == "quit":
                _send_frame(conn, {"ok": True})
                break
    for r in responders:
        r.close()


# ---------------------------------------------------------------------------
# supervisor side

class AgentHandle:
    """Owns one agent subprocess and its control channel."""

    def __init__(self, proc, control_path):
        self.proc = proc
        self.control_path = control_path

    def request(self, obj, timeout=3.0):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(timeout)
        try:
            s.connect(self.control_path)
            _send_frame(s, obj)
            resp = _recv_frame(s)
        except OSError as e:
            raise NamespaceUnavailable(f"probe agent unreachable: {e}")
        finally:
            s.close()
        if resp is None:
            raise NamespaceUnavailable("probe agent closed the control channel")
        return resp

    def alive(self):
        return self.proc.poll() is None

    def stop(self):
        try:
            self.request({"op": "quit"}, timeout=1.0)
        except NamespaceUnavailable:
            pass
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=3.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def start_agent(netns_ref, published_ports, control_path, bind_addr="0.0.0.0",
                startup_timeout=5.0):
    """Launch a probe agent in the given namespace (None = current).

    Raises NamespaceUnavailable if the agent cannot start; the caller must
    then treat every cross-sandbox decision as not switchable.
    """
    cmd = [sys.executable, "-m", "b4ns.probe", "--control", control_path,
           "--bind-addr", bind_addr,
           "--ports", ",".join(str(p) for p in published_ports)]
    if netns_ref:
        cmd += ["--netns", str(netns_ref)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = None
    ready = threading.Event()

    def wait_ready():
        nonlocal line
        line = proc.stdout.readline()
        ready.set()

    reader = threading.Thread(target=wait_ready, daemon=True)
    reader.start()
    if not ready.wait(startup_timeout) or line.strip() != "ready":
        proc.terminate()
        proc.wait()
        reader.join()  # the agent has exited: its read ends
        proc.stdout.close()
        raise NamespaceUnavailable(
            f"probe agent failed to start (netns={netns_ref})")
    handle = AgentHandle(proc, control_path)
    try:
        handle.request({"op": "ping"})
    except NamespaceUnavailable:
        handle.stop()
        raise
    return handle


class ProbeCache:
    """Read-heavy cache of directional reachability results.

    ``reachable`` answers immediately from cache: True only for a fresh
    positive result; stale or missing entries answer unknown (None) and are
    queued for the next refresh.  Safety over liveness: the switch engine
    treats anything but a fresh True as ignore.
    """

    def __init__(self, agent: Optional[AgentHandle], src="local",
                 period=DEFAULT_PERIOD, time_fn=time.monotonic):
        self.agent = agent
        self.src = src
        self.period = period
        self.freshness = period * FRESHNESS_FACTOR
        self._time = time_fn
        self._lock = threading.Lock()
        self._results = {}  # (dst, port) -> ProbeResult
        self._pending = set()
        self._stop = threading.Event()
        self._thread = None

    def register_pair(self, dst, port):
        with self._lock:
            if (dst, port) not in self._results:
                self._pending.add((dst, port))

    def reachable(self, dst, port):
        now = self._time()
        with self._lock:
            res = self._results.get((dst, port))
            if res is None or now - res.checked_at > self.freshness:
                self._pending.add((dst, port))
                return None
            return res.reachable

    def _probe_one(self, dst, port):
        if self.agent is None or not self.agent.alive():
            return None
        try:
            resp = self.agent.request({"op": "probe", "dst": dst, "port": port})
            return bool(resp.get("reachable"))
        except NamespaceUnavailable:
            return False

    def refresh_all(self):
        """Re-probe every known pair; per-pair failure records unreachable."""
        with self._lock:
            pairs = set(self._results) | self._pending
            self._pending.clear()
        for dst, port in pairs:
            outcome = self._probe_one(dst, port)
            res = ProbeResult(self.src, dst, port,
                              reachable=outcome, checked_at=self._time())
            with self._lock:
                prev = self._results.get((dst, port))
                if prev is not None and res.checked_at < prev.checked_at:
                    continue
                self._results[(dst, port)] = res

    def purge(self):
        with self._lock:
            self._results.clear()
            self._pending.clear()

    def start_background(self):
        def loop():
            while not self._stop.wait(self.period):
                try:
                    self.refresh_all()
                except Exception:
                    log.exception("probe refresh failed")

        self._thread = threading.Thread(target=loop, daemon=True,
                                        name="b4ns-probe-refresh")
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if self.agent is not None:
            self.agent.stop()


if __name__ == "__main__":
    agent_main()
