"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cli_run --runs 5 [--first-seed 1] [--seconds 30]

For every end-to-end metric: the median, and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, beside the metric's bound.  A run that is not ``correct`` stops it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)

    values = {name: [] for name in metrics.names(metrics.END_TO_END)}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
              flush=True)
    for name, unit, _better, bound in metrics.END_TO_END:
        series = values[name]
        print(f"{name:<18} median {statistics.median(series):10.4g} {unit:<9} "
              f"spread {metrics.spread(series):6.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
