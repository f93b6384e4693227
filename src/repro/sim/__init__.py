"""Simulation harness: simulator, engine (jobs/cache/sweeps), probes, results."""

from repro.sim.results import (
    SimulationResult,
    energy_reduction,
    leakage_reduction,
    power_reduction,
    slowdown,
)
from repro.sim.simulator import GatingMode, HybridSimulator, run_simulation
from repro.sim.engine import (
    JobRecord,
    ResultCache,
    SimJob,
    SweepRunner,
    run_job,
    run_jobs,
)
from repro.sim.probes import IPCSeriesProbe, ProbeSpec, ProbeState
from repro.sim.sweep import (
    sweep_powerchop_thresholds,
    sweep_signature_lengths,
    sweep_timeout_periods,
    sweep_window_sizes,
)

__all__ = [
    "GatingMode",
    "HybridSimulator",
    "run_simulation",
    "SimulationResult",
    "slowdown",
    "power_reduction",
    "energy_reduction",
    "leakage_reduction",
    "SimJob",
    "JobRecord",
    "ResultCache",
    "SweepRunner",
    "run_job",
    "run_jobs",
    "ProbeSpec",
    "ProbeState",
    "IPCSeriesProbe",
    "sweep_powerchop_thresholds",
    "sweep_timeout_periods",
    "sweep_window_sizes",
    "sweep_signature_lengths",
]
