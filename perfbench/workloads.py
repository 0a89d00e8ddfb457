"""Seeded generation of the op lists the target runs.

The same (workload, seed) always yields a byte-identical ``encode``d spec.
Each spec describes one *pass*; the target repeats whole passes until its
time is up, so every per-op count taken over a run equals the per-pass count
divided by the pass length, whatever the number of passes.

The mix of op shapes inside a pass is fixed (stratified) and only their
order and parameters come from the seed: a drawn mix would move the
percentiles from seed to seed by changing what share of ops is expensive.
"""

import json
import random
import socket

from common import BLOCK_SIZE, PING_SIZE

WORKLOADS = ("conn-churn", "syscall-tax", "stream")

CONN_PASS = 200          # connections per conn-churn pass
CONN_REWRITTEN = 50      # of which go to the published container address
CONN_TIMEOUT_EVERY = 3   # one in three uses a timeout (non-blocking connect)
MAX_REQUEST = 1024

# syscall-tax ops per pass; the last one spawns.  The op after a spawn is
# about 3x slower than the rest, so spawns must stay well under 1% of the
# ops or op_p99_us would sit on the edge of that mode.
TAX_PASS = 200
TAX_FILE_OPS = 139
TAX_SOCK_OPS = TAX_PASS - 1 - TAX_FILE_OPS
SOCK_CALLS = ("getsockopt", "getsockname", "fcntl")

STREAM_BULK_BLOCKS = 512  # 512 MiB per stream session

# (level, optname, low, high): each conn-churn socket sets 0-3 of these with
# a drawn value in [low, high]; the target reads every one back after the
# switch, so a value lost in replay is a failure.
OPTION_POOL = (
    (socket.IPPROTO_TCP, socket.TCP_NODELAY, 1, 1),
    (socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1, 1),
    (socket.SOL_SOCKET, socket.SO_REUSEADDR, 1, 1),
    (socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, 30, 600),
    (socket.IPPROTO_TCP, socket.TCP_KEEPINTVL, 5, 60),
    (socket.IPPROTO_TCP, socket.TCP_KEEPCNT, 3, 9),
)


def _conn_churn(rng):
    n = CONN_PASS
    rewritten = [True] * CONN_REWRITTEN + [False] * (n - CONN_REWRITTEN)
    nopts = [i % 4 for i in range(n)]
    timeout = [i % CONN_TIMEOUT_EVERY == 0 for i in range(n)]
    for column in (rewritten, nopts, timeout):
        rng.shuffle(column)
    ops = []
    for rw, k, to in zip(rewritten, nopts, timeout):
        opts = [[level, name, rng.randint(lo, hi)]
                for level, name, lo, hi in rng.sample(OPTION_POOL, k)]
        size = rng.randint(16, MAX_REQUEST)
        ops.append({"rewrite": rw, "opts": opts, "timeout": to,
                    "req": size, "off": rng.randrange(BLOCK_SIZE - size)})
    return {"ops": ops}


def _syscall_tax(rng):
    body = ([{"k": "file"}] * TAX_FILE_OPS
            + [{"k": "sock", "calls": rng.sample(SOCK_CALLS, 3)}
               for _ in range(TAX_SOCK_OPS)])
    rng.shuffle(body)
    spawn = {"k": "spawn", "n": rng.randint(1, 10 ** 6)}
    return {"ops": body + [spawn], "file_bytes": rng.randint(1024, 65536)}


def _stream(rng):
    return {"ping_off": rng.randrange(BLOCK_SIZE - PING_SIZE),
            "bulk_blocks": STREAM_BULK_BLOCKS}


_GENERATORS = {"conn-churn": _conn_churn, "syscall-tax": _syscall_tax,
               "stream": _stream}


def generate(workload, seed):
    """The workload's pass spec for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    spec = {"workload": workload, "seed": seed}
    spec.update(_GENERATORS[workload](rng))
    return spec


def encode(spec):
    """Canonical bytes of a spec (what the target receives)."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
