"""b4ns benchmark: one workload, supervised against an unsupervised control.

    python3 perfbench/run.py --workload conn-churn --seed 1 --seconds 30 --trace 0

Each run makes the workload's op list from ``--seed`` and runs ROUNDS
rounds.  A round is one supervised session and one unsupervised control
session of the same target program and op list, in alternating order, each
with a fresh peer, supervisor and target process (see sessions.py).  The
measured windows of all sessions add up to ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds a traced
supervised session to every round and prints the per-layer metrics; its
end-to-end numbers are never reported.  Every run checks the outputs, and
the last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The line before it is
a summary that adds the sample counts, the failure reasons and the figures
no bound guards: ``op_p99_us``, and the spawn time and goodput that exist
on one workload only (see DESIGN.md).
"""

import argparse
import json
import os
import shutil
import signal
import sys

import common

common.ensure_src()

import metrics  # noqa: E402
import workloads  # noqa: E402
from sessions import run_session  # noqa: E402

ROUNDS = 8
WORKDIR = common.ROOT / ".perfbench-run"


def run_rounds(workdir, spec, seconds, kinds):
    spec_path = workdir / "spec.json"
    spec_path.write_bytes(workloads.encode(spec))
    session_s = seconds / (ROUNDS * len(kinds))
    rounds = []
    for i in range(ROUNDS):
        order = kinds if i % 2 == 0 else kinds[::-1]
        rounds.append({kind: run_session(
            workdir, f"r{i}-{kind}", spec, spec_path, session_s,
            supervised=kind != "ctl", traced=kind == "traced")
            for kind in order})
    return rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # stopped from outside: unwind, so every session stops its processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    # One CPU for every process of the run: cross-vCPU wake-ups cost about
    # 10 us a hop in a VM and vary with the host, while in the closed loop
    # only one of target, supervisor and peer is runnable at a time anyway.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = workloads.generate(args.workload, args.seed)
    kinds = ["ctl", "sup", "traced"] if args.trace else ["sup", "ctl"]
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        rounds = run_rounds(workdir, spec, args.seconds, kinds)
        attempted, failed, reasons = metrics.account(rounds, args.workload)
        e2e, extra = metrics.end_to_end(rounds, args.workload)
        shown = (metrics.layer_metrics(rounds, args.workload) if args.trace
                 else e2e)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = {"workload": args.workload, "seed": args.seed,
               "fail_ratio": failed / attempted, "failures": reasons,
               **{k: round(v, 4) for k, (v, _) in e2e.items()},
               **{k: round(v, 4) if isinstance(v, float) else v
                  for k, v in extra.items()}}
    print("# " + json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
