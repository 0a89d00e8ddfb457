"""Shared layout and constants of the perfbench processes.

Every perfbench script imports this module first: it puts the checkout's
``src`` directory at the front of ``sys.path`` so the benchmark always runs
the b4ns sources next to it, never an installed copy.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The published service every rewritten conn-churn connection is aimed at.
# Inside the target's namespace it is CONTAINER_ADDR:CONTAINER_PORT; the
# supervisor rewrites it to the host peer.
CONTAINER_CIDR = "10.77.0.0/24"
CONTAINER_ADDR = "10.77.0.2"
CONTAINER_PORT = 80
HOST_ADDR = "127.0.0.1"

BLOCK_SIZE = 1 << 20   # stream bulk block; the peer verifies whole blocks
PING_SIZE = 64         # stream ping-pong message
BULK_MAGIC = b"BULK"   # first bytes of the ping that starts the bulk phase
REPLY_FMT = "<QQ"      # stream reply: bytes received, blocks that mismatched


def ensure_src():
    """Make ``import b4ns`` resolve to this checkout's sources, or exit."""
    if not (SRC / "b4ns" / "__init__.py").is_file():
        sys.exit(f"perfbench: no b4ns sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pattern_block(seed):
    """The seed's 1 MiB bulk payload block."""
    return random.Random(f"block-{seed}").randbytes(BLOCK_SIZE)


def emit(obj, out=None):
    """Write one JSON line and flush it (the processes talk over pipes)."""
    out = out or sys.stdout
    out.write(json.dumps(obj, separators=(",", ":")) + "\n")
    out.flush()
