"""Shared fixtures for the test suite.

Besides the profile/config fixtures, this file provides the
fault-injection toolkit for the batch runner's crash-isolation tests:

- :class:`FaultyExecutor` — a picklable ``SimJob.configure`` callback
  that deterministically kills or fails its worker;
- :class:`UnpicklableProbe` — a probe whose value poisons result
  pickling, so the job *runs* but its record cannot cross the process
  boundary;
- the ``crashing_job`` fixture — a factory for jobs carrying those
  faults.
"""

import os
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.config import PowerChopConfig
from repro.sim.probes import ProbeSpec, ProbeState
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import SERVER
from repro.workloads.generator import MemoryBehavior
from repro.workloads.profiles import (
    BenchmarkProfile,
    PhaseDecl,
    RegionSpec,
    build_workload,
)
from repro.workloads.mixes import GLOBAL_HEAVY, PREDICTABLE


# ----------------------------------------------------- fault injection


class FaultyExecutor:
    """Deterministic fault injector used as a ``SimJob.configure`` callback.

    Runs inside the worker process just before the simulation starts.
    ``kind``:

    - ``"crash"`` — hard-kills the worker (``os._exit``), poisoning a
      ``ProcessPoolExecutor`` exactly like a segfault or OOM-kill;
    - ``"raise"`` — raises ``RuntimeError`` from the job body.

    Instances are picklable, so faulty jobs travel to pool workers like
    any other job.
    """

    KINDS = ("crash", "raise")

    def __init__(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.kind = kind

    def __call__(self, simulator) -> None:
        if self.kind == "crash":
            os._exit(13)
        elif self.kind == "raise":
            raise RuntimeError("injected fault")


@dataclass(frozen=True)
class UnpicklableProbe(ProbeSpec):
    """Probe whose value cannot be pickled back from a worker process."""

    @property
    def name(self) -> str:
        return "unpicklable"

    def build(self) -> "_UnpicklableState":
        return _UnpicklableState()


class _UnpicklableState(ProbeState):
    __slots__ = ()

    name = "unpicklable"

    def value(self):
        return lambda: None  # closures do not pickle


@pytest.fixture
def crashing_job():
    """Factory for :class:`~repro.sim.engine.SimJob` carrying an injected fault.

    ``make(kind, ...)`` returns a job whose worker crashes or raises
    deterministically.  Each distinct ``tag`` yields a distinct cache key,
    so faulty jobs never alias healthy ones.
    """
    from repro.sim.engine import SimJob

    def _make(
        kind: str = "crash",
        benchmark: str = "hmmer",
        budget: int = 30_000,
        tag: str = "",
        seed: Optional[int] = None,
    ) -> SimJob:
        label = tag or kind
        return SimJob(
            benchmark=benchmark,
            max_instructions=budget,
            seed=seed,
            configure=FaultyExecutor(kind),
            cache_tag=f"fault-{label}",
        )

    return _make


@pytest.fixture(scope="session", autouse=True)
def _hermetic_result_cache(tmp_path_factory):
    """Point the engine's on-disk result cache at a per-session directory.

    Tier-1 tests still exercise both cache layers, but never read entries
    written by a previous (possibly different) version of the code.
    """
    path = tmp_path_factory.mktemp("engine-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def tiny_profile() -> BenchmarkProfile:
    """A fast two-phase workload exercising all three units."""
    return BenchmarkProfile(
        name="tiny",
        suite="test",
        phases=(
            PhaseDecl(
                name="vector_loop",
                region=RegionSpec(
                    n_blocks=8,
                    branch_mix=PREDICTABLE,
                    vector_frac=0.2,
                    vector_style="dense",
                ),
                memory=MemoryBehavior(working_set_kb=16, pattern="loop"),
                blocks=6000,
            ),
            PhaseDecl(
                name="scalar_chase",
                region=RegionSpec(n_blocks=10, branch_mix=GLOBAL_HEAVY, mem_frac=0.35),
                memory=MemoryBehavior(working_set_kb=256, pattern="random"),
                blocks=5000,
            ),
        ),
        schedule=("vector_loop", "scalar_chase", "vector_loop"),
        seed=7,
    )


@pytest.fixture
def quick_config() -> PowerChopConfig:
    """A PowerChop config sized for short test runs."""
    return PowerChopConfig(
        window_size=200, warmup_windows=2, collect_phase_vectors=True
    )


def run_tiny(
    profile: BenchmarkProfile,
    mode: GatingMode,
    design=SERVER,
    max_instructions: int = 120_000,
    config: PowerChopConfig | None = None,
):
    """Build a fresh workload and run one short simulation."""
    workload = build_workload(profile)
    simulator = HybridSimulator(design, workload, mode, powerchop_config=config)
    return simulator.run(max_instructions), simulator


@pytest.fixture
def run_quick(tiny_profile, quick_config):
    def _run(mode=GatingMode.FULL, design=SERVER, max_instructions=120_000):
        config = quick_config if mode is GatingMode.POWERCHOP else None
        return run_tiny(tiny_profile, mode, design, max_instructions, config)

    return _run
