"""Failure accounting, end-to-end metrics and per-layer metrics.

Inputs are session records from ``sessions.run_session``.  Every
end-to-end figure is a median over the run's sessions of one kind: the
host's speed drifts by 10-20% from second to second, and a median of
sessions resists that better than pooled samples.  Per-op counts use only
what happened inside the target's measured window (whole passes), so they
repeat exactly for a seed; span durations use every span of the traced
session.
"""

import json
import statistics

from b4ns.sysnr import NR
from stats import MIN_BEYOND, beyond, p50_or_zero, percentile

# the hooked syscalls bpf.notified_per_op.* counts (all but bind)
NOTIFIED = ("close", "fcntl", "ioctl", "setsockopt", "getsockopt",
            "getsockname", "getpeername", "connect", "shutdown")
TARGET_CALLS = ("connect", "close", "setsockopt", "fcntl", "ioctl",
                "getpeername")
SWITCHING = ("conn-churn", "stream")  # every connect must be switched


def median(values):
    return float(statistics.median(values))


# -- correctness ---------------------------------------------------------------

def session_failures(session, expect_switch):
    """Failed ops of one session and their reasons.

    Beyond the target's own failures, a connect that succeeded although the
    supervisor did not switch it is a failure: it reached the peer some
    other way than the path being measured.
    """
    t = session["target"]
    failed, reasons = t["failed"], dict(t["errors"])
    if expect_switch:
        sup = session["sup"]
        switched = sup["counters"]["sockets_switched"] if sup else 0
        unswitched = t["connects"] - t["connect_errors"] - switched
        if unswitched > 0:
            failed += unswitched
            reasons["unswitched"] = unswitched
    return failed, reasons


def result_mismatches(supervised, control):
    """Ops of a syscall-tax pass whose results differ from the control's."""
    if supervised is None or control is None:
        return max(len(supervised or ()), len(control or ()), 1)
    return (sum(a != b for a, b in zip(supervised, control))
            + abs(len(supervised) - len(control)))


def account(rounds, workload):
    """(attempted, failed, reasons) over every session of every round."""
    attempted = failed = 0
    reasons = {}
    control = next((r["ctl"]["target"]["results"] for r in rounds
                    if r.get("ctl")), None)
    for r in rounds:
        for kind, session in r.items():
            supervised = kind != "ctl"
            n, why = session_failures(
                session, expect_switch=supervised and workload in SWITCHING)
            if workload == "syscall-tax" and supervised:
                bad = result_mismatches(session["target"]["results"], control)
                if bad:
                    n += bad
                    why["control_mismatch"] = bad
            attempted += session["target"]["attempted"]
            failed += min(n, session["target"]["attempted"])
            for k, v in why.items():
                reasons[k] = reasons.get(k, 0) + v
    return attempted, failed, reasons


# -- end to end ----------------------------------------------------------------

# A session that broke off early reads 0 here; its failures are counted and
# the run is reported as incorrect.

def ops_per_s(session):
    t = session["target"]
    return t["ops"] / (t["span_ns"] / 1e9) if t["span_ns"] else 0.0


def goodput_gbps(session):
    bulk = session["target"]["bulk"]
    return bulk["bytes"] * 8 / bulk["ns"] if bulk else 0.0


def rate_ratio(rnd, workload):
    """Supervised rate / control rate of one round: goodput on stream, else
    ops/s."""
    rate = goodput_gbps if workload == "stream" else ops_per_s
    control = rate(rnd["ctl"])
    return rate(rnd["sup"]) / control if control else 0.0


def session_percentile(session, q):
    lat = session["target"]["lat_ns"]
    return percentile(lat, q) / 1e3 if lat else 0.0


def end_to_end(rounds, workload):
    sups = [r["sup"] for r in rounds]
    e2e = {
        "setup_s": (median(s["setup_ns"] for s in sups) / 1e9, "s"),
        "ops_per_s": (median(ops_per_s(s) for s in sups), "1/s"),
        "op_p50_us": (median(session_percentile(s, 50) for s in sups), "us"),
        "direct_ratio": (median(rate_ratio(r, workload) for r in rounds),
                         "ratio"),
        "sup_cpu_us_per_op": (median(s["sup"]["cpu_ns"] / 1e3 /
                                     max(1, s["target"]["ops_total"])
                                     for s in sups), "us"),
        "sup_maxrss_mb": (median(s["sup"]["maxrss_kb"] / 1024 for s in sups),
                          "MB"),
    }
    spawn = [x for s in sups for x in s["target"]["spawn_ns"]]
    extra = {
        # Not bounded: its run-to-run spread on an unchanged tree reached 0.30
        # on a 2-vCPU VM, beyond the 0.25 that BENCHMARK.json bounds allow.
        "op_p99_us": median(session_percentile(s, 99) for s in sups),
        "samples": sum(len(s["target"]["lat_ns"]) for s in sups),
        # op_p99_us holds only if every session has MIN_BEYOND samples past it
        "p99_supported": all(beyond(len(s["target"]["lat_ns"]), 99) >= MIN_BEYOND
                             for s in sups),
        "spawn_p50_ms": p50_or_zero(spawn) / 1e6,
        "spawn_samples": len(spawn),
        "goodput_gbps": (median(goodput_gbps(s) for s in sups)
                         if workload == "stream" else 0.0),
        "control_ops_per_s": median(ops_per_s(r["ctl"]) for r in rounds),
        "control_op_p50_us": median(session_percentile(r["ctl"], 50)
                                    for r in rounds),
    }
    return e2e, extra


# -- per layer -----------------------------------------------------------------

def load_spans(path):
    with open(path) as f:
        return json.load(f)


def _child_ns(spans):
    """Span index -> time its direct children cover (the supervisor has one
    thread, so children never overlap)."""
    covered = {}
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + end - start
    return covered


def layer_metrics(rounds, workload):
    traced = [r["traced"] for r in rounds]
    untraced = [r["sup"] for r in rounds]
    ops = sum(s["target"]["ops"] for s in traced)
    durations = {}    # span name -> durations over the whole session
    in_window = {}    # span name -> count inside the measured window
    notified = dict.fromkeys(NOTIFIED, 0)
    by_nr = {NR[name]: name for name in NOTIFIED}
    idle_ns = window_ns = first_sight = connects = switched = 0
    switch_self = []
    for session in traced:
        spans = load_spans(session["spans"])
        covered = _child_ns(spans)
        t0, t1 = session["target"]["t0"], session["target"]["t1"]
        window_ns += t1 - t0
        for idx, (name, start, end, parent, _, extra) in enumerate(spans):
            durations.setdefault(name, []).append(end - start)
            inside = t0 <= start <= t1
            if name == "notify.next_event":
                idle_ns += max(0, min(end, t1) - max(start, t0))
            elif name == "supervisor.event":
                connects += extra == NR["connect"]
                if inside and extra in by_nr:
                    notified[by_nr[extra]] += 1
            elif name == "engine.execute_switch":
                switched += bool(extra)
                switch_self.append(end - start - covered.get(idx, 0))
            if inside:
                in_window[name] = in_window.get(name, 0) + 1
                if (name == "targetmem.acquire_fd" and parent >= 0
                        and spans[parent][0] == "registry.ensure_registered"):
                    first_sight += 1

    def p50_us(name):
        return p50_or_zero(durations.get(name, ())) / 1e3

    def per_op(count):
        return count / ops if ops else 0.0

    events = durations.get("supervisor.event", ())
    m = {f"bpf.notified_per_op.{k}": (per_op(v), "count/op")
         for k, v in notified.items()}
    m.update({
        "supervisor.event_us_p50": (p50_us("supervisor.event"), "us"),
        "supervisor.event_us_p99": (
            percentile(events, 99) / 1e3 if events else 0.0, "us"),
        "supervisor.cpu_us_per_event": (median(
            s["sup"]["cpu_ns"] / 1e3 / max(1, s["sup"]["counters"]["events_handled"])
            for s in untraced), "us"),
        "supervisor.idle_frac": (idle_ns / window_ns if window_ns else 0.0,
                                 "ratio"),
        "notify.respond_us_p50": (p50_us("notify.respond"), "us"),
        "registry.ensure_registered_us_p50": (
            p50_us("registry.ensure_registered"), "us"),
        "registry.first_sight_per_op": (per_op(first_sight), "count/op"),
        "registry.record_option_per_op": (
            per_op(in_window.get("registry.record_option", 0)), "count/op"),
        "targetmem.acquire_fd_us_p50": (p50_us("targetmem.acquire_fd"), "us"),
    })
    for name in ("parse_connection_args", "decide", "execute_switch"):
        m[f"engine.{name}_us_p50"] = (p50_us(f"engine.{name}"), "us")
    m["engine.execute_switch_self_us_p50"] = (p50_or_zero(switch_self) / 1e3,
                                             "us")
    for name in ("replay_options", "handle_status"):
        m[f"engine.{name}_us_p50"] = (p50_us(f"engine.{name}"), "us")
    m.update({
        "notify.validate_per_op": (
            per_op(in_window.get("notify.validate", 0)), "count/op"),
        "notify.validate_us_p50": (p50_us("notify.validate"), "us"),
        "notify.inject_fd_us_p50": (p50_us("notify.inject_fd"), "us"),
        "targetmem.reads_per_op": (
            per_op(in_window.get("targetmem.read", 0)), "count/op"),
        "targetmem.writes_per_op": (
            per_op(in_window.get("targetmem.write", 0)), "count/op"),
        "targetmem.read_us_p50": (p50_us("targetmem.read"), "us"),
        "targetmem.write_us_p50": (p50_us("targetmem.write"), "us"),
        "supervisor.sockets_switched": (float(sum(
            s["sup"]["counters"]["sockets_switched"] for s in traced)), "count"),
        "supervisor.switch_ratio": (switched / connects if connects else 0.0,
                                    "ratio"),
    })
    for gauge in ("open_fds", "pidfds", "records"):
        m[f"supervisor.{gauge}_end"] = (
            median(s["sup"]["gauges"][gauge] for s in traced), "count")
    for call in TARGET_CALLS:
        m[f"target.{call}_us_p50"] = (p50_or_zero(
            [x for s in untraced for x in s["target"]["calls"].get(call, ())])
            / 1e3,
            "us")
    m["trace_overhead"] = (
        median(session_percentile(s, 50) for s in traced)
        - median(session_percentile(s, 50) for s in untraced), "us")
    return m
