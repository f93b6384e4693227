#!/usr/bin/env python3
"""Speed gate for the fast run loops, measured against ``reference``.

Times gobmk, bzip2 and milc at 500K instructions in FULL, POWERCHOP and
MINIMAL.  In each of ``ROUNDS`` rounds a cell runs ``reference``,
``fastpath`` and ``vectorized`` back to back, in an order rotated per
round, so host drift hits all three alike.  A cell's ratio is the median
of its per-round ratios, and a profile's is the geometric mean over its
modes.  The gate fails when a profile's fastpath/reference or
vectorized/reference ratio is below its floor, or when milc's best-mode
vectorized/fastpath ratio is below ``MILC_VECTORIZED_OVER_FASTPATH``.

Only ratios are gated: a slowdown in component code that every backend
shares leaves them unchanged, and shows in perfbench's same-host A/B
instead.  Eighteen runs on a 2-core Xeon (Python 3.11) gave
fastpath/reference gobmk 1.76-2.10, bzip2 1.84-2.09, milc 2.03-2.36,
vectorized/reference gobmk 2.11-2.41, bzip2 2.17-2.68, milc 3.84-4.81,
and milc vectorized/fastpath 1.81-2.46 at best mode.  Each floor sits
8-13% under the lowest of those.  bzip2's fastpath floor and gobmk's
vectorized floor also sit above 0.77x the highest, so making either fast
loop take 30% longer fails the gate.

Usage:
    python scripts/check_speedup.py
"""

from __future__ import annotations

import statistics
import sys
from typing import Dict, List

from profile_simulator import throughput

from repro.sim.simulator import GatingMode

PROFILES = ("gobmk", "bzip2", "milc")
MODES = (GatingMode.FULL, GatingMode.POWERCHOP, GatingMode.MINIMAL)
BACKENDS = ("reference", "fastpath", "vectorized")
BUDGET = 500_000
ROUNDS = 3

#: profile -> (fastpath/reference floor, vectorized/reference floor).
FLOORS = {
    "gobmk": (1.6, 1.95),
    "bzip2": (1.7, 2.0),
    "milc": (1.8, 3.4),
}
MILC_VECTORIZED_OVER_FASTPATH = 1.5

#: profile -> mode -> one ``{backend: instructions per second}`` per round.
Rates = Dict[str, Dict[str, List[Dict[str, float]]]]


def measure() -> Rates:
    """Time every cell, its three backends back to back in each round."""
    rates: Rates = {}
    for profile in PROFILES:
        rates[profile] = {}
        for mode in MODES:
            rounds = []
            for rnd in range(ROUNDS):
                shift = rnd % len(BACKENDS)
                order = BACKENDS[shift:] + BACKENDS[:shift]
                rounds.append({b: throughput(profile, BUDGET, mode, b) for b in order})
            rates[profile][mode.value] = rounds
    return rates


def cell_ratio(rounds: List[Dict[str, float]], num: str, den: str) -> float:
    """Median over the rounds of ``num``/``den``; each round's pair ran back to back."""
    return statistics.median(r[num] / r[den] for r in rounds)


def profile_ratio(modes: Dict[str, List[Dict[str, float]]], num: str, den: str) -> float:
    """Geometric mean of :func:`cell_ratio` over a profile's modes."""
    return statistics.geometric_mean(cell_ratio(rounds, num, den) for rounds in modes.values())


def milc_vectorized_over_fastpath(rates: Rates) -> float:
    """milc's best-mode vectorized/fastpath :func:`cell_ratio`."""
    return max(cell_ratio(r, "vectorized", "fastpath") for r in rates["milc"].values())


def failures(rates: Rates) -> List[str]:
    """Every floor the measured rates miss (empty when the gate passes)."""
    missed = []
    for profile, modes in rates.items():
        for backend, floor in zip(("fastpath", "vectorized"), FLOORS[profile]):
            ratio = profile_ratio(modes, backend, "reference")
            if ratio < floor:
                missed.append(f"{profile}: {backend}/reference {ratio:.2f}x < floor {floor:.2f}x")
    milc = milc_vectorized_over_fastpath(rates)
    if milc < MILC_VECTORIZED_OVER_FASTPATH:
        missed.append(
            f"milc: best-mode vectorized/fastpath {milc:.2f}x "
            f"< floor {MILC_VECTORIZED_OVER_FASTPATH:.2f}x"
        )
    return missed


def main() -> int:
    rates = measure()
    for profile, modes in rates.items():
        for mode, rounds in modes.items():
            print(
                f"{profile:6s} {mode:10s} "
                f"fastpath {cell_ratio(rounds, 'fastpath', 'reference'):4.2f}x  "
                f"vectorized {cell_ratio(rounds, 'vectorized', 'reference'):4.2f}x"
            )
        fast_floor, vec_floor = FLOORS[profile]
        print(
            f"{profile:6s} {'mean':10s} "
            f"fastpath {profile_ratio(modes, 'fastpath', 'reference'):4.2f}x "
            f"(floor {fast_floor:.2f})  "
            f"vectorized {profile_ratio(modes, 'vectorized', 'reference'):4.2f}x "
            f"(floor {vec_floor:.2f})"
        )
    print(f"milc   best-mode vectorized/fastpath {milc_vectorized_over_fastpath(rates):4.2f}x")
    missed = failures(rates)
    for line in missed:
        print("FAIL " + line)
    if not missed:
        print("speed ratios above every floor")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
