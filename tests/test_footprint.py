"""What the per-container processes load.

``b4ns attach`` and the target shim run once per container, so every
module they import is paid per container in memory and start-up.  Each
entry point is imported in a fresh interpreter, and only the modules the
import adds count: whatever ``site`` loads first is the same with or
without b4ns.
"""

import json
import os
import subprocess
import sys

import pytest

import b4ns

SRC = os.path.dirname(b4ns.__path__[0])

_ADDED = """
import importlib, json, sys
before = set(sys.modules)
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# socket.py and its selectors: the supervisor path uses _socket itself;
# logging and what it loads: imported at a process's first message only
_LOGGING = {"logging", "traceback", "tokenize", "linecache", "textwrap",
            "string"}
_SUPERVISOR_PATH = {"dataclasses", "inspect", "hashlib", "http.client", "ssl",
                    "socket", "selectors", "array", *_LOGGING}

# entry point -> modules its import must not add
EXCLUDED = {
    "b4ns.notify": _SUPERVISOR_PATH,
    "b4ns.engine": _SUPERVISOR_PATH,
    "b4ns.supervisor": _SUPERVISOR_PATH,
    "b4ns.cli": {"http.server", "http.client", "socketserver",
                 "urllib.request", "ssl", "b4ns.daemon", "b4ns.kvs",
                 "b4ns.bench", "socket", "selectors", "array", *_LOGGING},
    "b4ns.target_shim": {"logging", "hashlib", "dataclasses", "b4ns.notify",
                         "b4ns.registry"},
}


def added_modules(module):
    out = subprocess.run([sys.executable, "-c", _ADDED, module],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("module", sorted(EXCLUDED))
def test_import_adds_none_of_the_excluded(module):
    added = added_modules(module)
    assert module in added  # the import itself is counted
    assert added & EXCLUDED[module] == set()


def test_old_names_still_import():
    from b4ns.notify import ACK_BYTE
    from b4ns.registry import COPIED_OPTIONS, UNHOOKED_IOCTLS
    from b4ns import sysnr

    assert ACK_BYTE is sysnr.ACK_BYTE
    assert COPIED_OPTIONS is sysnr.COPIED_OPTIONS
    assert UNHOOKED_IOCTLS is sysnr.UNHOOKED_IOCTLS
