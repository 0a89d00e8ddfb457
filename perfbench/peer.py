"""The host peer: the service the target's connections reach.

It serves one connection at a time on a listening socket it inherits as
fd ``--fd`` (the orchestrator binds it, so the port is known before any
process starts).  ``echo`` returns every byte until the client's FIN;
``stream`` echoes 64-byte pings until one starts with the bulk magic, then
compares every bulk byte with the seed's pattern block and replies with
(bytes received, blocks that mismatched).

After the client's FIN the peer closes with zero linger, so the connection
ends in a reset and neither side keeps a TIME_WAIT socket: a long
conn-churn run stays in steady state and leaves no socket state behind for
the next run.

    python3 perfbench/peer.py --role echo --seed 1 --fd 3
"""

import argparse
import ctypes
import signal
import socket
import struct
import sys

import common

ZERO_LINGER = struct.pack("ii", 1, 0)
PR_SET_PDEATHSIG = 1

_prctl = ctypes.CDLL(None, use_errno=True).prctl
_prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
_prctl.restype = ctypes.c_int


def recv_exact(conn, view):
    got = 0
    while got < len(view):
        n = conn.recv_into(view[got:])
        if n == 0:
            break
        got += n
    return got


def serve_echo(conn):
    buf = bytearray(1 << 16)
    while True:
        n = conn.recv_into(buf)
        if n == 0:
            return
        conn.sendall(memoryview(buf)[:n])


def serve_stream(conn, block):
    ping = bytearray(common.PING_SIZE)
    while True:
        if recv_exact(conn, memoryview(ping)) < len(ping):
            return
        if ping.startswith(common.BULK_MAGIC):
            break
        conn.sendall(ping)
    (nbytes,) = struct.unpack_from("<Q", ping, len(common.BULK_MAGIC))
    buf = bytearray(len(block))
    view = memoryview(buf)
    got = bad = 0
    while got < nbytes:
        n = recv_exact(conn, view[:min(len(buf), nbytes - got)])
        got += n
        if n < len(buf) or buf != block:
            bad += 1
        if n < len(buf):
            break
    conn.sendall(struct.pack(common.REPLY_FMT, got, bad))
    while conn.recv(1):  # wait for the client's FIN
        pass


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("echo", "stream"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--fd", type=int, required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    # the peer only ever waits in accept: end it with the orchestrator
    if _prctl(PR_SET_PDEATHSIG, signal.SIGTERM) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG)")
    block = common.pattern_block(args.seed) if args.role == "stream" else None
    srv = socket.socket(fileno=args.fd)
    while True:
        conn, _ = srv.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            if block is None:
                serve_echo(conn)
            else:
                serve_stream(conn, block)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, ZERO_LINGER)
        except OSError:
            pass  # the target counts its own failures
        finally:
            conn.close()


if __name__ == "__main__":
    main()
