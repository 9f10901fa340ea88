"""E22 — the end-to-end, layer-attributed benchmark of the request path.

``python3 benchmarks/e22/run.py --workload NAME --seed N --seconds S
--trace 0|1`` is the one command (``BENCHMARK.json`` at the repo root
names it).  See ``README.md`` in this directory for the workloads, the
metrics and how they interact.

The package measures the program from outside: it imports ``repro``
from the checkout's ``src/`` and times calls into public functions; it
changes nothing there.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout this package sits in (``<root>/benchmarks/e22``).
REPO_ROOT = Path(__file__).resolve().parents[2]

# The benchmark runs from a bare checkout (nothing pip-installed), so
# the program's source directory is put on the path here, once.
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
