"""Live checks of the failure accounting: they start real peer, target and
supervisor processes (root, network namespaces and seccomp notification
are required)."""

import metrics
import workloads
from sessions import run_session


def _session(tmp_path, supervised, workload="conn-churn"):
    spec = workloads.generate(workload, 5)
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(workloads.encode(spec))
    return run_session(tmp_path, "s", spec, spec_path, 0.3,
                       supervised=supervised)


def test_unswitched_connects_count_as_failures_not_fast_ops(tmp_path):
    # the conn-churn target in the host namespace without a filter: every
    # connect reaches the peer natively and none is switched
    session = _session(tmp_path, supervised=False)
    target = session["target"]
    assert target["failed"] == 0 and target["connects"] > 0
    failed, reasons = metrics.session_failures(session, expect_switch=True)
    assert failed == target["connects"]
    assert reasons == {"unswitched": target["connects"]}
    attempted, failed, _ = metrics.account([{"sup": session}], "conn-churn")
    assert failed == attempted == target["attempted"]


def test_supervised_conn_churn_switches_every_connect(tmp_path):
    session = _session(tmp_path, supervised=True)
    target = session["target"]
    assert target["errors"] == {}
    assert session["sup"]["counters"]["sockets_switched"] == target["connects"]
    assert metrics.session_failures(session, expect_switch=True) == (0, {})


def test_syscall_tax_results_are_compared_with_the_control():
    control = [[32768, 100], [1, ["0.0.0.0", 0], 2], [0, "42\n"]]
    assert metrics.result_mismatches(control, control) == 0
    wrong = [[32768, 99], [1, ["0.0.0.0", 0], 2], [0, "42\n"]]
    assert metrics.result_mismatches(wrong, control) == 1
    assert metrics.result_mismatches(control[:2], control) == 1
    assert metrics.result_mismatches(None, control) == 3
