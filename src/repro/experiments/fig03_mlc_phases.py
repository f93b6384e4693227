"""Figure 3: 128 KB 1-way vs 1024 KB 8-way MLC IPC over time (GemsFDTD).

The paper shows phases where the full MLC provides substantial IPC benefit
(working set fits the 8-way MLC but not 1 way) alternating with phases
where it does not (working set streams past any MLC).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.common import ExperimentResult, timeseries_ipc
from repro.sim.simulator import HybridSimulator


def ipc_series(
    benchmark: str = "gems",
    max_instructions: int = 6_000_000,
    sample_instructions: int = 100_000,
) -> Tuple[List[float], List[float]]:
    """Returns (1-way MLC IPC series, 8-way MLC IPC series)."""

    def one_way(simulator: HybridSimulator) -> None:
        simulator.core.apply_mlc_state(1)

    small = timeseries_ipc(
        benchmark,
        max_instructions,
        sample_instructions,
        configure=one_way,
        cache_tag="mlc=1way",
    )
    large = timeseries_ipc(benchmark, max_instructions, sample_instructions)
    return small, large


def run(max_instructions: int = 6_000_000) -> ExperimentResult:
    small, large = ipc_series(max_instructions=max_instructions)
    n = min(len(small), len(large))
    small, large = small[:n], large[:n]
    gains = [(l - s) / s if s else 0.0 for s, l in zip(small, large)]
    helped = sum(1 for g in gains if g > 0.10)
    flat = sum(1 for g in gains if abs(g) <= 0.03)
    rows = [
        (f"t{i:03d}", round(small[i], 3), round(large[i], 3), f"{gains[i]:+.1%}")
        for i in range(0, n, max(1, n // 24))
    ]
    return ExperimentResult(
        experiment_id="fig03",
        title="128KB 1-way vs 1024KB 8-way MLC IPC over time (gems, server core)",
        headers=("sample", "ipc_1way", "ipc_8way", "gain"),
        rows=rows,
        summary={
            "samples": n,
            "mean_gain": sum(gains) / n if n else 0.0,
            "helped_frac": helped / n if n else 0.0,
            "flat_frac": flat / n if n else 0.0,
        },
        notes=[
            "Paper shape: the full MLC helps only when the phase working set"
            " fits it; streaming phases see little benefit.",
        ],
    )
