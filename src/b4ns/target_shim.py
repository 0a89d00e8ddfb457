"""Scripted supervised target ("mini-runtime").

Plays the role the container runtime plays in production: optionally move
into a fresh network namespace, install the notification seccomp filter,
hand the listener fd to the supervisor over the handoff socket, then run a
scripted sequence of socket operations.  Used by the test suite and the
bypass benchmark; also runnable standalone:

    python -m b4ns.target_shim --handoff /run/b4ns.sock --script ops.json
"""

import argparse
import array
import ctypes
import errno
import fcntl
import json
import os
import select
import socket
import struct
import sys
import threading
import time

from .bpf import install_notify_filter
from .sockaddr import pack_sockaddr_in
from .sysnr import ACK_BYTE

CLONE_NEWNET = 0x40000000
SIOCGIFFLAGS = 0x8913
SIOCSIFFLAGS = 0x8914
IFF_UP = 1

_libc = ctypes.CDLL(None, use_errno=True)
_libc.connect.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_uint32)
_libc.connect.restype = ctypes.c_int

BLOCK = bytes(range(256)) * 4096  # 1 MiB deterministic payload block


def unshare_netns():
    if _libc.unshare(CLONE_NEWNET) != 0:
        raise OSError(ctypes.get_errno(), "unshare(CLONE_NEWNET)")


def bring_lo_up():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        ifr = struct.pack("16sH", b"lo", 0) + b"\x00" * 14
        res = fcntl.ioctl(s.fileno(), SIOCGIFFLAGS, ifr)
        flags = struct.unpack_from("16sH", res)[1]
        ifr = struct.pack("16sH", b"lo", flags | IFF_UP) + b"\x00" * 14
        fcntl.ioctl(s.fileno(), SIOCSIFFLAGS, ifr)
    finally:
        s.close()


def handoff_notify_fd(handoff_path, timeout=10.0):
    """Connect to the supervisor, install the filter, pass the listener fd,
    wait for the ack.  The connect happens before the filter exists so the
    handoff itself is never intercepted."""
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(timeout)
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn.connect(handoff_path)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if time.monotonic() > deadline:
                raise
            # the supervisor may bind after this process gets here: up to
            # one retry period is added to the container's start-up
            time.sleep(0.002)
    notify_fd = install_notify_filter()
    conn.sendmsg([b"\x00"], [(socket.SOL_SOCKET, socket.SCM_RIGHTS,
                              array.array("i", [notify_fd]))])
    ack = conn.recv(1)
    if ack != ACK_BYTE:
        raise RuntimeError(f"bad handoff ack {ack!r}")
    os.close(notify_fd)
    return conn  # kept open so the supervisor can watch for target exit


def _await_writable(sock, timeout):
    _, w, _ = select.select([], [sock], [], timeout)
    if not w:
        raise TimeoutError("connect did not complete")
    err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
    if err:
        raise OSError(err, os.strerror(err))


class ScriptRunner:
    """Executes ops against a named pool of sockets, emitting one JSON
    result line per op."""

    def __init__(self, out=sys.stdout):
        self.socks = {}
        self.out = out

    def emit(self, **kv):
        self.out.write(json.dumps(kv) + "\n")
        self.out.flush()

    def sock(self, op):
        return self.socks[op.get("sock", "s0")]

    def run(self, ops):
        for op in ops:
            name = op["op"]
            handler = getattr(self, "op_" + name, None)
            if handler is None:
                raise ValueError(f"unknown op {name!r}")
            handler(op)

    # -- socket lifecycle ----------------------------------------------------

    def op_socket(self, op):
        """op["flags"] (e.g. SOCK_NONBLOCK) is OR'd into op["type"], which
        defaults to SOCK_STREAM; op["family"] defaults to AF_INET."""
        s = socket.socket(op.get("family", socket.AF_INET),
                          op.get("type", socket.SOCK_STREAM)
                          | op.get("flags", 0))
        self.socks[op.get("sock", "s0")] = s

    def op_close(self, op):
        self.sock(op).close()
        del self.socks[op.get("sock", "s0")]

    def op_dup2(self, op):
        """dup2 the fd of socket op["sock"] over the fd of op["to"]."""
        os.dup2(self.sock(op).fileno(), self.socks[op["to"]].fileno())

    def op_setsockopt(self, op):
        self.sock(op).setsockopt(op["level"], op["optname"], op["value"])

    def op_set_nonblock(self, op):
        fd = self.sock(op).fileno()
        flags = fcntl.fcntl(fd, fcntl.F_GETFL)
        fcntl.fcntl(fd, fcntl.F_SETFL, flags | os.O_NONBLOCK)

    def op_connect(self, op):
        s = self.sock(op)
        timeout = op.get("timeout", 10.0)
        try:
            s.connect((op["host"], op["port"]))
            self.emit(op="connect", ok=True, err=0)
        except BlockingIOError:
            try:
                _await_writable(s, timeout)
                self.emit(op="connect", ok=True, err=0, inprogress=True)
            except OSError as e:
                self.emit(op="connect", ok=False, err=e.errno or 0)
        except OSError as e:
            self.emit(op="connect", ok=False, err=e.errno or 0)

    def op_connect_raw(self, op):
        """connect() with an AF_INET sockaddr, whatever the socket's family;
        op["family"] overrides its family field and op["len"] the addrlen
        passed with it.  Emits the sockaddr buffer, as hex, after the
        call."""
        raw = pack_sockaddr_in(op["host"], op["port"])
        buf = ctypes.create_string_buffer(raw, len(raw))
        struct.pack_into("<H", buf, 0, op.get("family", socket.AF_INET))
        r = _libc.connect(self.sock(op).fileno(), buf, op.get("len", len(raw)))
        self.emit(op="connect_raw", ok=r == 0,
                  err=ctypes.get_errno() if r else 0, sockaddr=buf.raw.hex())

    def op_await_connect(self, op):
        """Wait until a non-blocking connect completes; emit SO_ERROR."""
        s = self.sock(op)
        select.select([], [s], [], op.get("timeout", 10.0))
        self.emit(op="await_connect",
                  err=s.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR))

    def op_bind(self, op):
        s = self.sock(op)
        try:
            s.bind((op["host"], op["port"]))
            self.emit(op="bind", ok=True, err=0)
        except OSError as e:
            self.emit(op="bind", ok=False, err=e.errno or 0)

    def op_listen(self, op):
        self.sock(op).listen(op.get("backlog", 8))

    def op_shutdown(self, op):
        self.sock(op).shutdown(op.get("how", socket.SHUT_WR))
        self.emit(op="shutdown", ok=True)

    def op_getpeername(self, op):
        try:
            addr, port = self.sock(op).getpeername()
            self.emit(op="getpeername", ok=True, addr=addr, port=port)
        except OSError as e:
            self.emit(op="getpeername", ok=False, err=e.errno or 0)

    def op_getsockname(self, op):
        addr, port = self.sock(op).getsockname()
        self.emit(op="getsockname", ok=True, addr=addr, port=port)

    def op_getsockopt(self, op):
        v = self.sock(op).getsockopt(op["level"], op["optname"])
        self.emit(op="getsockopt", value=v)

    def op_fcntl_getfl(self, op):
        flags = fcntl.fcntl(self.sock(op).fileno(), fcntl.F_GETFL)
        self.emit(op="fcntl_getfl", flags=flags)

    def op_fcntl(self, op):
        value = fcntl.fcntl(self.sock(op).fileno(), op["cmd"], op.get("arg", 0))
        self.emit(op="fcntl", cmd=op["cmd"], value=value)

    def op_ioctl(self, op):
        """ioctl with an int in/out argument; emits the int afterwards."""
        buf = bytearray(struct.pack("i", op.get("arg", 0)))
        try:
            fcntl.ioctl(self.sock(op).fileno(), op["request"], buf)
            self.emit(op="ioctl", request=op["request"], ok=True,
                      value=struct.unpack("i", buf)[0])
        except OSError as e:
            self.emit(op="ioctl", request=op["request"], ok=False,
                      err=e.errno or 0)

    # -- data transfer -------------------------------------------------------

    def op_send_pattern(self, op):
        s = self.sock(op)
        s.setblocking(True)
        total = op["bytes"]
        sent = 0
        while sent < total:
            chunk = BLOCK[: min(len(BLOCK), total - sent)]
            s.sendall(chunk)
            sent += len(chunk)
        self.emit(op="send_pattern", bytes=sent)

    def op_recv_digest(self, op):
        import hashlib
        s = self.sock(op)
        s.setblocking(True)
        total = op["bytes"]
        h = hashlib.blake2b(digest_size=16)
        buf = bytearray(1 << 20)
        got = 0
        while got < total:
            n = s.recv_into(buf)
            if n == 0:
                break
            h.update(memoryview(buf)[:n])
            got += n
        self.emit(op="recv_digest", bytes=got, digest=h.hexdigest())

    def op_echo_roundtrip(self, op):
        """Send a pattern and verify the echoed bytes digest-match."""
        import hashlib
        s = self.sock(op)
        s.setblocking(True)
        total = op["bytes"]
        sent_h = hashlib.blake2b(digest_size=16)
        recv_h = hashlib.blake2b(digest_size=16)
        recv_buf = bytearray(1 << 20)
        sent = got = 0
        s.settimeout(op.get("timeout", 60.0))
        view = memoryview(BLOCK)
        while got < total:
            if sent < total:
                chunk = view[: min(1 << 16, total - sent)]
                n = s.send(chunk)
                sent_h.update(chunk[:n])
                sent += n
                if sent == total:
                    s.shutdown(socket.SHUT_WR)
            n = s.recv_into(recv_buf)
            if n == 0:
                break
            recv_h.update(memoryview(recv_buf)[:n])
            got += n
        self.emit(op="echo_roundtrip", sent=sent, received=got,
                  sent_digest=sent_h.hexdigest(), recv_digest=recv_h.hexdigest())

    def op_serve_echo(self, op):
        """Accept one connection on a listening socket and echo until EOF."""
        s = self.sock(op)
        s.settimeout(op.get("timeout", 30.0))
        conn, peer = s.accept()
        with conn:
            conn.settimeout(op.get("timeout", 30.0))
            total = 0
            while True:
                data = conn.recv(1 << 16)
                if not data:
                    break
                conn.sendall(data)
                total += len(data)
        self.emit(op="serve_echo", bytes=total)

    def op_pingpong(self, op):
        s = self.sock(op)
        s.setblocking(True)
        size, count = op.get("size", 64), op["count"]
        payload = BLOCK[:size]
        t0 = time.monotonic()
        for _ in range(count):
            s.sendall(payload)
            got = 0
            while got < size:
                got += len(s.recv(size - got))
        dt = time.monotonic() - t0
        self.emit(op="pingpong", count=count, mean_latency_us=dt / count * 1e6)

    # -- scenario helpers ----------------------------------------------------

    def op_storm(self, op):
        """Issue a burst of unhooked syscalls (filter-exactness fixture)."""
        for _ in range(op.get("count", 1000)):
            os.getpid()
            os.getppid()
            os.urandom(8)
        self.emit(op="storm", ok=True)

    def op_threads(self, op):
        """Run each op list in op["each"] on a thread of its own, all at
        once, over the shared socket pool; carry on once all have ended."""
        threads = [threading.Thread(target=self.run, args=(ops,))
                   for ops in op["each"]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def op_fork(self, op):
        """Run op["ops"] in a forked child that exits without closing its
        sockets; the parent waits for the child, then carries on."""
        pid = os.fork()
        if pid == 0:
            try:
                self.run(op["ops"])
            finally:
                os._exit(0)
        os.waitpid(pid, 0)

    def op_exec(self, op):
        """Replace this process with the program op["argv"]; the seccomp
        filter and the network namespace stay."""
        os.execv(op["argv"][0], op["argv"])

    def op_sleep(self, op):
        time.sleep(op["seconds"])

    def op_barrier(self, op):
        """Emit a marker and wait for one line on stdin (test choreography)."""
        self.emit(op="barrier", name=op.get("name", ""))
        sys.stdin.readline()


def main(argv=None):
    ap = argparse.ArgumentParser(prog="b4ns-target-shim", description=__doc__)
    ap.add_argument("--handoff", help="supervisor handoff socket path")
    ap.add_argument("--no-filter", action="store_true",
                    help="run unsupervised (control runs)")
    ap.add_argument("--netns", choices=["host", "new"], default="host")
    ap.add_argument("--lo-up", action="store_true",
                    help="bring loopback up in the fresh namespace")
    ap.add_argument("--script", required=True,
                    help="JSON ops file, or - for stdin")
    args = ap.parse_args(argv)

    if args.script == "-":
        ops = json.load(sys.stdin)
    else:
        with open(args.script) as f:
            ops = json.load(f)

    if args.netns == "new":
        unshare_netns()
        if args.lo_up:
            bring_lo_up()

    handoff_conn = None
    if not args.no_filter:
        if not args.handoff:
            ap.error("--handoff is required unless --no-filter")
        handoff_conn = handoff_notify_fd(args.handoff)

    runner = ScriptRunner()
    try:
        runner.run(ops)
    finally:
        if handoff_conn is not None:
            handoff_conn.close()
    runner.emit(op="done")


if __name__ == "__main__":
    main()
