#!/usr/bin/env python3
"""Memory ceiling for the vectorized run loop.

Runs ``python -m repro run cnn -n 2000000 --backend vectorized --json`` in a
child process with the result cache off and exits non-zero if the child's
peak resident set (``ru_maxrss``) exceeds the ceiling.  On a 2-core Xeon
this run peaked at 149 MB before bursts were capped at ``_BURST_BLOCKS``
blocks and at 55 MB after (``fastpath``: 39 MB).

Usage:
    python scripts/check_peak_rss.py
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

COMMAND = ["-m", "repro", "run", "cnn", "-n", "2000000", "--backend", "vectorized", "--json"]
LIMIT_MB = 120.0


def main() -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, REPRO_CACHE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, *COMMAND], env=env, check=True, stdout=subprocess.DEVNULL)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"peak RSS {peak_mb:.1f} MB (limit {LIMIT_MB:.0f} MB)")
    return 0 if peak_mb <= LIMIT_MB else 1


if __name__ == "__main__":
    sys.exit(main())
