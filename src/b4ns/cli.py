"""Command-line entry points: b4nsd, b4ns, b4ns-trace, b4ns-bench.

``b4ns attach`` runs one supervisor per container, so this module imports
only what attach uses; the daemon, the KVS, the trace analyzer and the
benchmark are imported by the commands and options that use them.
"""

import argparse
import json
import os
import resource
import signal
import sys
import threading

from . import notify
from .engine import NetEnvironment, PublishMapping
from .errors import B4nsError, EmptyTrace, HandoffFailed, UnsupportedKernel
from .supervisor import SupervisorInstance

ENV_API_SOCKET = "B4NS_API_SOCKET"
ENV_KVS_ENDPOINT = "B4NS_KVS_ENDPOINT"
DEFAULT_API_SOCKET = "/run/b4nsd.sock"


def _raise_fd_limit():
    """Lift the soft limit on open fds to the hard limit, as Go programs
    do at start since Go 1.19.  A supervisor holds three fds for each
    process it has switched a socket for, and once opens fail with EMFILE
    every call it is notified of stays unswitched."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != hard:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
        except ValueError:  # EPERM: a hard limit above fs.nr_open
            pass  # serve with the soft limit as it is


def main_daemon(argv=None):
    ap = argparse.ArgumentParser(
        prog="b4nsd", description="socket-switching supervisor daemon")
    ap.add_argument("--api-socket",
                    default=os.environ.get(ENV_API_SOCKET, DEFAULT_API_SOCKET))
    ap.add_argument("--kvs", default=os.environ.get(ENV_KVS_ENDPOINT),
                    help="KVS endpoint (http URL or directory path)")
    ap.add_argument("--node-id", default=None)
    args = ap.parse_args(argv)

    _raise_fd_limit()
    from . import daemon as daemon_mod
    d = daemon_mod.Daemon(kvs_endpoint=args.kvs, node_id=args.node_id)
    srv = daemon_mod.serve_api(d, args.api_socket)
    print(f"b4nsd listening on {args.api_socket}", flush=True)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *a: stop.set())
    signal.signal(signal.SIGINT, lambda *a: stop.set())
    stop.wait()
    srv.shutdown()
    srv.server_close()
    d.shutdown()
    return 0


def _add_attach_args(ap):
    ap.add_argument("--handoff", required=True,
                    help="path of the seccomp notification handoff socket")
    ap.add_argument("--publish", action="append", default=[],
                    metavar="HOST_PORT:CONTAINER_PORT")
    ap.add_argument("--cidr", action="append", default=[],
                    help="container network CIDR (repeatable)")
    ap.add_argument("--container-addr", default="0.0.0.0",
                    help="this container's address for published mappings")
    ap.add_argument("--host-addr", default="127.0.0.1")
    ap.add_argument("--allow-host-loopback", action="store_true")
    ap.add_argument("--multinode", action="store_true")
    ap.add_argument("--kvs", default=os.environ.get(ENV_KVS_ENDPOINT))


def main_b4ns(argv=None):
    ap = argparse.ArgumentParser(
        prog="b4ns", description="daemonless single-container supervisor")
    sub = ap.add_subparsers(dest="cmd", required=True)
    at = sub.add_parser("attach", help="supervise one container, foreground")
    _add_attach_args(at)
    st = sub.add_parser("status", help="query a running b4nsd")
    st.add_argument("--api-socket",
                    default=os.environ.get(ENV_API_SOCKET, DEFAULT_API_SOCKET))
    st.add_argument("container_id", nargs="?")
    args = ap.parse_args(argv)

    if args.cmd == "status":
        from . import daemon as daemon_mod
        client = daemon_mod.DaemonClient(args.api_socket)
        status, payload = client.status(args.container_id)
        print(json.dumps(payload, indent=2))
        return 0 if status == 200 else 1

    mappings = [
        PublishMapping.parse(p, container_addr=args.container_addr,
                             host_addr=args.host_addr)
        for p in args.publish
    ]
    env = NetEnvironment(container_cidrs=args.cidr, published_ports=mappings,
                         host_loopback_allowed=args.allow_host_loopback)
    stop_fd = None
    if threading.current_thread() is threading.main_thread():
        # SIGTERM and SIGINT end the handoff wait or the loop, so that what
        # this process published is withdrawn on the way out; a caller that
        # runs attach in a thread of its own keeps its signals
        stop_fd = os.eventfd(0, os.EFD_CLOEXEC)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda *a: os.eventfd_write(stop_fd, 1))
    mirror = None
    publisher = None
    if args.multinode:
        if not args.kvs:
            ap.error("--multinode requires --kvs or " + ENV_KVS_ENDPOINT)
        from . import kvs as kvs_mod
        client = kvs_mod.open_kvs(args.kvs)
        publisher = kvs_mod.MappingPublisher(client, node_id=args.host_addr)
        for m in mappings:
            publisher.publish(m)
        publisher.start_background()
        mirror = kvs_mod.MirrorCache(client)
        mirror.refresh_now()
        mirror.start_background()

    try:
        _raise_fd_limit()
        print(f"waiting for runtime handoff on {args.handoff}", flush=True)
        try:
            chan = notify.attach(args.handoff, timeout=60.0, stop_fd=stop_fd)
        except (HandoffFailed, UnsupportedKernel, OSError) as e:
            print(f"attach failed: {e}", file=sys.stderr)
            return 1
        sup = SupervisorInstance(chan, env, multinode=mirror)
        print("attached; supervising", flush=True)
        sup.run()
    finally:
        if publisher is not None:
            publisher.stop()
        if mirror is not None:
            mirror.stop()
    print(json.dumps(sup.counters.as_dict()))
    return 0


def main_trace(argv=None):
    ap = argparse.ArgumentParser(
        prog="b4ns-trace", description="socket lifecycle trace analyzer")
    sub = ap.add_subparsers(dest="cmd", required=True)
    an = sub.add_parser("analyze")
    an.add_argument("--input", required=True, help="JSONL trace, or - for stdin")
    an.add_argument("--json", dest="json_out", help="also write a JSON report")
    cv = sub.add_parser("convert-strace",
                        help="convert strace-style text to the JSONL schema")
    cv.add_argument("--input", required=True)
    args = ap.parse_args(argv)

    from . import traces
    if args.cmd == "convert-strace":
        with open(args.input) as f:
            for ev in traces.convert_strace(f):
                print(json.dumps(ev))
        return 0

    stream = sys.stdin if args.input == "-" else open(args.input)
    try:
        try:
            events, skipped = traces.parse_trace(stream)
        except EmptyTrace:
            print("no socket activity in trace")
            return 0
    finally:
        if stream is not sys.stdin:
            stream.close()
    lifecycles = traces.reconstruct(events)
    rep = traces.report(lifecycles)
    if skipped:
        print(f"warning: skipped {skipped} malformed line(s)", file=sys.stderr)
    sys.stdout.write(rep.to_text())
    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(rep.to_json())
    return 0


def _parse_size(text):
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    t = text.strip().lower().rstrip("ib")
    if t and t[-1] in units:
        return int(float(t[:-1]) * units[t[-1]])
    return int(t)


def main_bench(argv=None):
    from . import bench as bench_mod
    ap = argparse.ArgumentParser(
        prog="b4ns-bench", description="relay/bypass/direct loopback benchmark")
    ap.add_argument("--mode", action="append", choices=bench_mod.MODES,
                    help="repeatable; default: all three")
    ap.add_argument("--bytes", default="1G", help="total payload, e.g. 1G")
    ap.add_argument("--streams", type=int, default=1)
    ap.add_argument("--latency", action="store_true",
                    help="64-byte ping-pong latency instead of throughput")
    ap.add_argument("--runs", type=int, default=1, help="median of N runs")
    ap.add_argument("--json", dest="json_out")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    modes = args.mode or list(bench_mod.MODES)
    cfg_kwargs = {
        "payload_bytes": _parse_size(args.bytes),
        "parallel_streams": args.streams,
        "latency": args.latency,
    }
    try:
        results = bench_mod.median_results(modes, cfg_kwargs, runs=args.runs)
    except B4nsError as e:
        print(f"b4ns-bench: {e}", file=sys.stderr)
        return 1
    text, payload = bench_mod.report(list(results.values()))
    sys.stdout.write(text)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(payload, f, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main_b4ns())
