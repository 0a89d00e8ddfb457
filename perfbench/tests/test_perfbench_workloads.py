import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_op_lists(workload):
    first = workloads.encode(workloads.generate(workload, 7))
    assert first == workloads.encode(workloads.generate(workload, 7))
    # and in another interpreter, with another hash seed
    code = ("import sys, workloads; sys.stdout.buffer.write("
            f"workloads.encode(workloads.generate({workload!r}, 7)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         stdout=subprocess.PIPE, check=True).stdout
    assert out == first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_op_lists(workload):
    assert (workloads.encode(workloads.generate(workload, 1))
            != workloads.encode(workloads.generate(workload, 2)))


def test_conn_churn_mix_is_fixed_and_only_its_order_is_drawn():
    for seed in (1, 2, 3):
        ops = workloads.generate("conn-churn", seed)["ops"]
        assert len(ops) == workloads.CONN_PASS
        assert sum(op["rewrite"] for op in ops) == workloads.CONN_REWRITTEN
        assert Counter(len(op["opts"]) for op in ops) == {
            k: workloads.CONN_PASS // 4 for k in range(4)}
        assert all(len({(lvl, name) for lvl, name, _ in op["opts"]})
                   == len(op["opts"]) for op in ops)


def test_syscall_tax_spawns_once_per_pass_at_the_end():
    ops = workloads.generate("syscall-tax", 3)["ops"]
    kinds = Counter(op["k"] for op in ops)
    assert kinds == {"file": workloads.TAX_FILE_OPS,
                     "sock": workloads.TAX_SOCK_OPS, "spawn": 1}
    assert ops[-1]["k"] == "spawn"
