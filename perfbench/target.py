"""The benchmark's target: a single-threaded, closed-loop load generator.

Supervised, it plays the sandboxed application: it moves into a fresh
network namespace whose loopback stays down, installs the notification
filter and hands the listener to the supervisor process, so that no
connection can succeed unless the supervisor switched it.  As the
unsupervised control it runs the same ops in the host namespace without a
filter, aiming rewritten connections straight at the host peer.

It runs one warm-up pass, then whole passes until its window is used up,
and prints one JSON report: per-op latencies, per-syscall round trips,
failures by reason and, for syscall-tax, the results of every op of a pass.

    python3 perfbench/target.py --config session.json
"""

import argparse
import fcntl
import json
import os
import socket
import struct
import subprocess
import sys
import time

import common

common.ensure_src()

from b4ns import target_shim  # noqa: E402

clock = time.monotonic_ns

FIONREAD = 0x541B
CONNECT_TIMEOUT = 5.0
STREAM_WARMUP_PINGS = 200
# The stream window runs a fixed number of round trips, sized to fill 70% of
# the window at this nominal rate, then a fixed-size bulk send.  A fixed
# count keeps the supervisor's fixed per-connection cost per round trip
# independent of how fast the host happens to be.
STREAM_PING_SHARE = 0.7
STREAM_NOMINAL_RTT_PER_S = 50_000
SPAWN_CODE = "import json, socket; print({n} * ({n} - 1) // 2)"


def recv_exact(sock, n):
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if k == 0:
            break
        got += k
    return bytes(view[:got])


class Target:
    def __init__(self, cfg, spec):
        self.cfg = cfg
        self.spec = spec
        self.block = common.pattern_block(spec["seed"])
        self.peer = (common.HOST_ADDR, cfg["peer_port"])
        self.measuring = False
        self.lat = []
        self.spawn = []
        self.calls = {}  # hooked call -> its round trips
        self.errors = {}
        self.attempted = self.failed = self.ops_total = self.ops_window = 0
        self.connects = self.connect_errors = 0
        self.t0 = self.t1 = self.span_ns = 0
        self.results = None  # syscall-tax: the results of the first pass
        self.bulk = None     # stream: bytes sent and the time until the reply

    # -- bookkeeping ---------------------------------------------------------

    def timed(self, name, fn, *args):
        t = clock()
        value = fn(*args)
        self.calls.setdefault(name, []).append(clock() - t)
        return value

    def fail(self, reason):
        self.errors[reason] = self.errors.get(reason, 0) + 1

    def finish_op(self, start, ok, spawn=False):
        self.attempted += 1
        self.ops_total += 1
        if not ok:
            self.failed += 1
        if self.measuring:
            (self.spawn if spawn else self.lat).append(clock() - start)

    def connect(self, s, dest):
        self.connects += 1
        try:
            self.timed("connect", s.connect, dest)
        except OSError:
            self.connect_errors += 1
            raise

    # -- conn-churn ----------------------------------------------------------

    def conn_op(self, op):
        start = clock()
        ok = True
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            for level, name, value in op["opts"]:
                self.timed("setsockopt", s.setsockopt, level, name, value)
            if op["timeout"]:
                # FIONBIO ioctl: the connect below takes the non-blocking path
                self.timed("ioctl", s.settimeout, CONNECT_TIMEOUT)
            if op["rewrite"] and self.cfg["supervised"]:
                dest = (common.CONTAINER_ADDR, common.CONTAINER_PORT)
            else:
                dest = self.peer
            self.connect(s, dest)
            payload = self.block[op["off"]:op["off"] + op["req"]]
            s.sendall(payload)
            reply = recv_exact(s, len(payload))
            if reply != payload:
                ok = False
                self.fail("short_read" if len(reply) < len(payload)
                          else "payload")
            for level, name, value in op["opts"]:
                if s.getsockopt(level, name) != value:
                    ok = False
                    self.fail("option")
            if op["rewrite"]:
                if self.timed("getpeername", s.getpeername) != dest:
                    ok = False
                    self.fail("peer")
        except OSError as e:
            ok = False
            self.fail(f"errno:{e.errno}")
        finally:
            self.timed("close", s.close)
        self.finish_op(start, ok)

    # -- syscall-tax ---------------------------------------------------------

    def file_op(self):
        fd = os.open(self.cfg["data_file"], os.O_RDONLY)
        try:
            flags = self.timed("fcntl", fcntl.fcntl, fd, fcntl.F_GETFL)
            buf = bytearray(4)
            self.timed("ioctl", fcntl.ioctl, fd, FIONREAD, buf, True)
        finally:
            self.timed("close", os.close, fd)
        return [flags, int.from_bytes(buf, "little")]

    def sock_op(self, op):
        s = self.status_sock
        out = []
        for call in op["calls"]:
            if call == "getsockopt":
                out.append(s.getsockopt(socket.SOL_SOCKET, socket.SO_TYPE))
            elif call == "getsockname":
                out.append(list(s.getsockname()))
            else:
                out.append(self.timed("fcntl", fcntl.fcntl, s.fileno(),
                                      fcntl.F_GETFL))
        return out

    def spawn_op(self, op):
        proc = subprocess.run([sys.executable, "-c", SPAWN_CODE.format(n=op["n"])],
                              stdout=subprocess.PIPE, timeout=60)
        return [proc.returncode, proc.stdout.decode()]

    def tax_pass(self):
        results = []
        for op in self.spec["ops"]:
            start = clock()
            try:
                if op["k"] == "file":
                    res = self.file_op()
                elif op["k"] == "sock":
                    res = self.sock_op(op)
                else:
                    res = self.spawn_op(op)
            except (OSError, subprocess.SubprocessError) as e:
                self.fail(f"error:{type(e).__name__}")
                res = None
            ok = res is not None
            if ok and self.results is not None:
                ok = res == self.results[len(results)]
                if not ok:
                    self.fail("result")
            results.append(res)
            self.finish_op(start, ok, spawn=op["k"] == "spawn")
        if self.results is None:
            self.results = results

    # -- stream --------------------------------------------------------------

    def ping(self, s, payload):
        start = clock()
        s.sendall(payload)
        ok = recv_exact(s, len(payload)) == payload
        if not ok:
            self.fail("payload")
        self.finish_op(start, ok)

    def stream(self, seconds):
        off = self.spec["ping_off"]
        payload = self.block[off:off + common.PING_SIZE]
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.connect(s, self.peer)
            for _ in range(STREAM_WARMUP_PINGS):
                self.ping(s, payload)
            self.start_window()
            for _ in range(int(seconds * STREAM_PING_SHARE
                               * STREAM_NOMINAL_RTT_PER_S)):
                self.ping(s, payload)
            self.span_ns = clock() - self.t0
            nbytes = self.spec["bulk_blocks"] * common.BLOCK_SIZE
            header = (common.BULK_MAGIC + struct.pack("<Q", nbytes)).ljust(
                common.PING_SIZE, b"\0")
            start = clock()
            s.sendall(header)
            for _ in range(self.spec["bulk_blocks"]):
                s.sendall(self.block)
            reply = recv_exact(s, struct.calcsize(common.REPLY_FMT))
            self.bulk = {"bytes": nbytes, "ns": clock() - start}
            self.attempted += 1
            if len(reply) < struct.calcsize(common.REPLY_FMT):
                self.failed += 1
                self.fail("short_read")
            else:
                got, bad = struct.unpack(common.REPLY_FMT, reply)
                if got != nbytes or bad:
                    self.failed += 1
                    self.fail("digest")
        except OSError as e:
            self.attempted += 1
            self.failed += 1
            self.fail(f"errno:{e.errno}")
            if not self.measuring:
                self.start_window()
        finally:
            s.close()

    # -- run loop ------------------------------------------------------------

    def start_window(self):
        self.measuring = True
        self.ops_window = self.ops_total
        self.t0 = clock()
        return self.t0

    def run(self):
        seconds = self.cfg["seconds"]
        workload = self.spec["workload"]
        if workload == "stream":
            # the window starts after the connect, once warm-up pings are done
            self.stream(seconds)
            self.t1 = clock()
            return
        one_pass = (self.tax_pass if workload == "syscall-tax" else
                    lambda: [self.conn_op(op) for op in self.spec["ops"]])
        one_pass()
        deadline = self.start_window() + int(seconds * 1e9)
        while clock() < deadline:
            one_pass()
        self.t1 = clock()
        self.span_ns = self.t1 - self.t0

    def report(self):
        return {
            "t0": self.t0, "t1": self.t1, "span_ns": self.span_ns,
            "ops": self.ops_total - self.ops_window, "ops_total": self.ops_total,
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors, "connects": self.connects,
            "connect_errors": self.connect_errors,
            "lat_ns": self.lat, "spawn_ns": self.spawn, "calls": self.calls,
            "results": self.results, "bulk": self.bulk,
        }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    args = ap.parse_args(argv)
    with open(args.config) as f:
        cfg = json.load(f)
    with open(cfg["spec"]) as f:
        spec = json.load(f)
    target = Target(cfg, spec)
    if spec["workload"] == "syscall-tax":
        with open(cfg["data_file"], "wb") as f:
            f.write(target.block[:spec["file_bytes"]])
    handoff = None
    if cfg["supervised"]:
        target_shim.unshare_netns()  # loopback stays down
        handoff = target_shim.handoff_notify_fd(cfg["handoff"])
    common.emit({"ready_ns": clock()})
    # syscall-tax's unconnected socket, created (an unhooked syscall) once
    target.status_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        target.run()
    finally:
        target.status_sock.close()
    common.emit(target.report())
    if handoff is not None:
        handoff.close()


if __name__ == "__main__":
    main()
