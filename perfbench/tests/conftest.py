import sys
from pathlib import Path

# the perfbench scripts import each other as top-level modules
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402

common.ensure_src()
