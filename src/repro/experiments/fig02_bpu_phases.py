"""Figure 2: small (local) vs large (tournament) BPU IPC over time (msn).

The paper shows the mobile browser workload alternating between phases
where the large tournament predictor clearly improves IPC and phases where
it provides no benefit — the opportunity PowerChop's BPU gating exploits.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.common import ExperimentResult, timeseries_ipc
from repro.sim.simulator import HybridSimulator


def ipc_series(
    benchmark: str = "msn",
    max_instructions: int = 6_000_000,
    sample_instructions: int = 100_000,
) -> Tuple[List[float], List[float]]:
    """Returns (small-BPU IPC series, large-BPU IPC series)."""

    def force_small(simulator: HybridSimulator) -> None:
        simulator.core.apply_bpu_state(False)

    small = timeseries_ipc(
        benchmark,
        max_instructions,
        sample_instructions,
        configure=force_small,
        cache_tag="bpu=small",
    )
    large = timeseries_ipc(benchmark, max_instructions, sample_instructions)
    return small, large


def run(max_instructions: int = 6_000_000) -> ExperimentResult:
    small, large = ipc_series(max_instructions=max_instructions)
    n = min(len(small), len(large))
    small, large = small[:n], large[:n]
    gains = [(l - s) / s if s else 0.0 for s, l in zip(small, large)]
    helped = sum(1 for g in gains if g > 0.03)
    flat = sum(1 for g in gains if abs(g) <= 0.02)
    rows = [
        (f"t{i:03d}", round(small[i], 3), round(large[i], 3), f"{gains[i]:+.1%}")
        for i in range(0, n, max(1, n // 24))
    ]
    return ExperimentResult(
        experiment_id="fig02",
        title="Small vs large BPU IPC over time (msn, mobile core)",
        headers=("sample", "ipc_small", "ipc_large", "gain"),
        rows=rows,
        summary={
            "samples": n,
            "mean_gain": sum(gains) / n if n else 0.0,
            "helped_frac": helped / n if n else 0.0,
            "flat_frac": flat / n if n else 0.0,
        },
        notes=[
            "Paper shape: the large BPU improves IPC overall, but its benefit"
            " is negligible during many phases of execution.",
        ],
    )
