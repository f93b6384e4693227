"""Traced stand-in for ``python -m repro <args>``: one CLI request in a fresh interpreter.

    python3 -m perfbench.cli_runner TRACE_DIR run gobmk -m powerchop --json

Times the import of ``repro.__main__``, installs the layer wrappers and runs
``main(argv)`` inside a ``cli.main`` span; the spans are appended to
``TRACE_DIR/spans-<pid>.jsonl`` even when the command fails.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv) -> int:
    trace_dir, cli_argv = Path(argv[0]), argv[1:]
    import_start = time.perf_counter_ns()
    from repro.__main__ import main as cli_main
    import_end = time.perf_counter_ns()

    from perfbench import spans

    recorder = spans.install(trace_dir)
    recorder.add("import", import_start, import_end)
    try:
        with recorder.span("cli.main"):
            return cli_main(cli_argv)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
