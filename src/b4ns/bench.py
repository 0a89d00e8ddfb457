"""Desk-scale loopback benchmarks: relay vs bypass vs direct.

Every mode runs the same client program, ``b4ns.target_shim``, in its own
process with the same script.  The relay mode puts the architectural
bottleneck of userspace port-forwarding (per-connection copy loops with a
fixed buffer) between client and sink; the bypass mode supervises the
client in a fresh network namespace whose socket gets switched to a host
socket; direct is the unsupervised baseline.  The sink checks every byte
of every stream against the sender's pattern as it arrives -- a
throughput number from a stream that differs in any byte or in length is
discarded.
"""

import json
import os
import select
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from .engine import NetEnvironment
from .errors import SetupFailed, SwitchDidNotHappen
from .notify import attach
from .supervisor import SupervisorInstance
from .target_shim import BLOCK

RELAY_BUF = 32 * 1024
MIN_PAYLOAD = 1 << 20
MODES = ("relay", "bypass", "direct")
LATENCY_SIZE = 64


@dataclass
class BenchConfig:
    payload_bytes: int
    parallel_streams: int = 1
    mode: str = "direct"
    latency: bool = False
    latency_count: int = 2000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 1 <= self.parallel_streams <= 8:
            raise ValueError("parallel_streams must be in [1, 8]")
        if not self.latency and self.payload_bytes < MIN_PAYLOAD:
            raise ValueError("throughput runs need at least 1 MiB of payload")


@dataclass
class BenchResult:
    mode: str
    throughput_bps: float
    mean_latency_us: Optional[float]
    cpu_self_fraction: float
    payload_bytes: int
    streams: int
    per_stream_bps: list = field(default_factory=list)
    digest_ok: bool = True


class _Listener:
    """A loopback listening socket.  ``close`` shuts it down first: that
    wakes a thread blocked in its ``accept``, which a bare close leaves
    blocked, holding the socket open and still listening."""

    def __init__(self, backlog=8, host="127.0.0.1"):
        self.srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.srv.bind((host, 0))
        self.srv.listen(backlog)
        self.port = self.srv.getsockname()[1]

    def serve(self, handler):
        """Run ``handler(conn)`` on a thread of its own for every accepted
        connection, until closed."""
        def loop():
            while True:
                try:
                    conn, _ = self.srv.accept()
                except OSError:
                    return
                threading.Thread(target=handler, args=(conn,),
                                 daemon=True).start()

        threading.Thread(target=loop, daemon=True).start()

    def close(self):
        self.srv.shutdown(socket.SHUT_RDWR)
        self.srv.close()


class _PatternSink(_Listener):
    """Receives ``streams`` connections and checks each stream against the
    pattern as it arrives, one ``BLOCK``-sized buffer per stream: every
    full block must equal ``BLOCK``, the last partial one ``BLOCK[:n]``,
    and the stream must hold exactly ``expected_bytes``.  Each stream's
    outcome is ``(bytes, matched, first byte in, last byte in)``."""

    def __init__(self, streams, expected_bytes):
        super().__init__(streams)
        self.streams = streams
        self.expected_bytes = expected_bytes
        self.outcomes = []
        self._done = threading.Condition()
        self.serve(self._check)

    def _check(self, conn):
        buf = bytearray(len(BLOCK))
        view = memoryview(buf)
        total = got = 0
        matched = True
        t_first = t_last = None
        try:
            with conn:
                while True:
                    n = conn.recv_into(view[got:])
                    if n:
                        t_last = time.monotonic()
                        if t_first is None:
                            t_first = t_last
                        got += n
                    if got == len(buf) or (not n and got):
                        # bytearray against bytes is one memcmp; comparing
                        # memoryviews goes element by element
                        matched &= (buf == BLOCK if got == len(buf)
                                    else buf[:got] == BLOCK[:got])
                        total += got
                        got = 0
                    if not n:
                        break
        except OSError:
            matched = False
        matched = matched and total == self.expected_bytes
        with self._done:
            self.outcomes.append((total, matched, t_first, t_last))
            self._done.notify_all()

    def wait(self, timeout=300.0):
        with self._done:
            self._done.wait_for(lambda: len(self.outcomes) >= self.streams,
                                timeout)


class _EchoServer(_Listener):
    def __init__(self, host="127.0.0.1"):
        super().__init__(host=host)
        self.serve(self._echo)

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


class _Relay(_Listener):
    """Per-connection bidirectional copy loop with a fixed 32 KiB buffer,
    emulating the userspace port-forwarding path: a single thread
    multiplexes both directions with select(2) and stages every chunk
    through an internal buffer before writing it out, mirroring the
    read-into-forwarder / write-out-of-forwarder copy pair that makes
    usermode networking slow."""

    def __init__(self, upstream_port, host="127.0.0.1"):
        super().__init__(host=host)
        self.upstream = (host, upstream_port)
        self.serve(self._relay_conn)

    def _relay_conn(self, client):
        try:
            up = socket.create_connection(self.upstream)
        except OSError:
            client.close()
            return
        client.setblocking(False)
        up.setblocking(False)
        buf = bytearray(RELAY_BUF)
        peer = {client: up, up: client}
        done = set()
        try:
            while len(done) < 2:
                readable, _, _ = select.select(
                    [s for s in peer if s not in done], [], [], 1.0)
                for src in readable:
                    dst = peer[src]
                    try:
                        n = src.recv_into(buf)
                    except BlockingIOError:
                        continue
                    except OSError:
                        done.update(peer)
                        break
                    if n == 0:
                        done.add(src)
                        try:
                            dst.shutdown(socket.SHUT_WR)
                        except OSError:
                            pass
                        continue
                    staged = memoryview(bytes(memoryview(buf)[:n]))
                    while staged:
                        try:
                            sent = dst.send(staged)
                        except BlockingIOError:
                            select.select([], [dst], [], 1.0)
                            continue
                        except OSError:
                            done.update(peer)
                            break
                        staged = staged[sent:]
        finally:
            client.close()
            up.close()


def _cpu_window():
    """CPU seconds of this process and of its reaped children, so the
    clients count in every mode once they have been waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _client_script(cfg, port):
    if cfg.latency:
        work = {"op": "pingpong", "count": cfg.latency_count,
                "size": LATENCY_SIZE}
    else:
        work = {"op": "send_pattern",
                "bytes": cfg.payload_bytes // cfg.parallel_streams}
    return [{"op": "socket"},
            {"op": "connect", "host": "127.0.0.1", "port": port},
            work,
            {"op": "close"}]


def _start_client(mode, script_path, handoff):
    """One client process running the shim script; in bypass mode it is
    supervised from a fresh network namespace, otherwise it runs
    unfiltered in the host's."""
    where = (["--netns", "new", "--handoff", handoff] if mode == "bypass"
             else ["--no-filter"])
    proc = subprocess.Popen(
        [sys.executable, "-m", "b4ns.target_shim", "--script", script_path]
        + where, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if mode != "bypass":
        return proc, None
    try:
        chan = attach(handoff, timeout=10.0)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    env = NetEnvironment(container_cidrs=["10.255.255.0/24"],
                         host_loopback_allowed=True)
    sup = SupervisorInstance(chan, env)
    sup.start()
    return proc, sup


def _finish_client(mode, proc, sup):
    """Wait for one client and return its result lines, keyed by op."""
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        raise SetupFailed(f"{mode}: client timed out") from None
    if sup is not None:
        sup.join(10.0)
    if proc.returncode != 0:
        raise SetupFailed(f"{mode}: client failed: {err[-500:]}")
    return {line["op"]: line for line in map(json.loads, out.splitlines())}


def _throughput_result(mode, cfg, sink, cpu_used, wall):
    if (len(sink.outcomes) != cfg.parallel_streams
            or not all(matched for _, matched, _, _ in sink.outcomes)):
        raise SetupFailed(
            f"{mode}: a stream does not match the pattern; result discarded")
    nbytes, _, firsts, lasts = zip(*sink.outcomes)
    # the receive window runs from the first byte in to the last
    window = max(max(lasts) - min(firsts), 1e-6)
    return BenchResult(
        mode=mode,
        throughput_bps=sum(nbytes) * 8 / window,
        mean_latency_us=None,
        cpu_self_fraction=cpu_used / max(wall, 1e-6),
        payload_bytes=cfg.payload_bytes,
        streams=cfg.parallel_streams,
        per_stream_bps=[n * 8 / window for n in nbytes],
        digest_ok=True,
    )


def run_mode(mode, cfg_kwargs):
    """One run of ``mode``: ``parallel_streams`` clients, each a
    ``b4ns.target_shim`` process running the same script against a digest
    sink (or an echo server for latency).  Relay puts a ``_Relay`` in front
    of the sink; bypass is invalid unless every client's socket was
    switched."""
    cfg = BenchConfig(mode=mode, **cfg_kwargs)
    if cfg.latency:
        sink = _EchoServer()
    else:
        sink = _PatternSink(cfg.parallel_streams,
                            cfg.payload_bytes // cfg.parallel_streams)
    relay = _Relay(sink.port) if mode == "relay" else None
    clients = []
    try:
        with tempfile.TemporaryDirectory(prefix="b4ns-bench-") as tmp:
            script = os.path.join(tmp, "client.json")
            with open(script, "w") as f:
                json.dump(_client_script(cfg, (relay or sink).port), f)
            cpu0, t0 = _cpu_window(), time.monotonic()
            for i in range(cfg.parallel_streams):
                clients.append(_start_client(
                    mode, script, os.path.join(tmp, f"{i}.sock")))
            lines = [_finish_client(mode, proc, sup) for proc, sup in clients]
            if not cfg.latency:
                sink.wait()
            cpu, wall = _cpu_window() - cpu0, time.monotonic() - t0
    finally:
        for proc, _ in clients:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if relay is not None:
            relay.close()
        sink.close()
    if mode == "bypass":
        switched = sum(sup.counters.sockets_switched for _, sup in clients)
        if switched < cfg.parallel_streams:
            raise SwitchDidNotHappen(
                f"bypass: only {switched}/{cfg.parallel_streams} streams switched")
    if not cfg.latency:
        return _throughput_result(mode, cfg, sink, cpu, wall)
    return BenchResult(
        mode=mode, throughput_bps=0.0,
        mean_latency_us=statistics.fmean(
            l["pingpong"]["mean_latency_us"] for l in lines),
        cpu_self_fraction=cpu / max(wall, 1e-6), payload_bytes=0,
        streams=cfg.parallel_streams)


def median_results(modes, cfg_kwargs, runs=3):
    """Run ``modes`` round-robin ``runs`` times (relay, bypass, direct,
    relay, ...), so load drift during the session hits every mode alike,
    and return {mode: its median result}: by throughput, or by mean latency
    for latency runs."""
    done = {mode: [] for mode in modes}
    for _ in range(runs):
        for mode in modes:
            done[mode].append(run_mode(mode, cfg_kwargs))
    key = attrgetter("mean_latency_us" if cfg_kwargs.get("latency")
                     else "throughput_bps")
    return {mode: sorted(rs, key=key)[len(rs) // 2]
            for mode, rs in done.items()}


def report(results):
    """Deterministic comparison table (text + JSON) with bypass ratios."""
    by_mode = {r.mode: r for r in results}

    def fmt_bps(v):
        return f"{v / 1e9:8.3f} Gbps" if v else "        -"

    lines = [f"{'mode':>8} {'throughput':>14} {'latency_us':>11} {'cpu':>6}"]
    for mode in MODES:
        r = by_mode.get(mode)
        if r is None:
            lines.append(f"{mode:>8} {'-':>14} {'-':>11} {'-':>6}")
            continue
        lat = f"{r.mean_latency_us:11.1f}" if r.mean_latency_us else f"{'-':>11}"
        lines.append(f"{mode:>8} {fmt_bps(r.throughput_bps):>14} {lat} "
                     f"{r.cpu_self_fraction:6.2f}")
    ratios = {}
    b = by_mode.get("bypass")
    if b is not None and b.throughput_bps:
        for other in ("relay", "direct"):
            o = by_mode.get(other)
            if o is not None and o.throughput_bps:
                ratios[f"bypass/{other}"] = b.throughput_bps / o.throughput_bps
    for name, v in sorted(ratios.items()):
        lines.append(f"{name}: {v:.2f}x")
    payload = {
        "results": [
            {
                "mode": r.mode,
                "throughput_bps": r.throughput_bps,
                "mean_latency_us": r.mean_latency_us,
                "cpu_self_fraction": r.cpu_self_fraction,
                "payload_bytes": r.payload_bytes,
                "streams": r.streams,
                "per_stream_bps": r.per_stream_bps,
                "digest_ok": r.digest_ok,
            }
            for r in sorted(results, key=lambda r: MODES.index(r.mode))
        ],
        "ratios": ratios,
    }
    return "\n".join(lines) + "\n", payload
