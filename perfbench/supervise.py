"""The benchmark's supervisor process, on the same path as ``b4ns attach``.

It receives the target's notification fd over the handoff socket, runs a
``SupervisorInstance`` in its main thread until the target tree exits, and
prints one JSON report: the supervisor's counters, the CPU it used after
the handoff, its peak RSS and, when traced, the end-of-run gauges.  With
``--spans PATH`` it records spans (see tracing.py) and writes them to PATH.

    python3 perfbench/supervise.py --handoff handoff.sock --peer-port 40000
"""

import argparse
import time

import common

common.ensure_src()

from b4ns import notify  # noqa: E402
from b4ns.engine import NetEnvironment, PublishMapping  # noqa: E402
from b4ns.supervisor import SupervisorInstance  # noqa: E402

from tracing import Tracer  # noqa: E402


def peak_rss_kb():
    """This process's peak resident set.  Not ``ru_maxrss``, which Linux
    carries over from the parent across fork and exec."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--handoff", required=True)
    ap.add_argument("--peer-port", type=int, required=True)
    ap.add_argument("--spans", help="record spans and write them here")
    args = ap.parse_args(argv)

    env = NetEnvironment(
        container_cidrs=[common.CONTAINER_CIDR],
        published_ports=[PublishMapping(
            common.CONTAINER_ADDR, common.CONTAINER_PORT,
            common.HOST_ADDR, args.peer_port)],
        # the host peer listens on the host's loopback
        host_loopback_allowed=True)
    chan = notify.attach(args.handoff, timeout=60.0)
    cpu0 = time.process_time_ns()
    sup = SupervisorInstance(chan, env)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.instrument(sup)
    sup.run()
    report = {
        "counters": sup.counters.as_dict(),
        "cpu_ns": time.process_time_ns() - cpu0,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        tracer.write(args.spans)
        report["gauges"] = tracer.gauges
    common.emit(report)


if __name__ == "__main__":
    main()
