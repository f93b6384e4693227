"""The benchmark's three workloads: what each runs, with which knobs.

Why each exists (see README.md for the layer map):

- ``study_sweep`` — throughput: the 29-app study set x FULL/POWERCHOP/MINIMAL
  submitted at once to ``run_jobs`` on the vectorized backend, cold cache.
  The run loop, pool dispatch and cache writes do nearly all the work.
- ``paper_artifacts`` — the paper harness path: serial ``run_job`` on the
  default backend, memo sharing between figures, fig03's probes on the
  reference loop and fig16's TIMEOUT runs.  Never touches the pool.
- ``cli_run`` — a closed loop with one client, each request a fresh
  ``python -m repro run`` process: import, argument parsing, workload build
  and simulator construction are paid per request.

Only the ``*_jobs``/``*_calls`` helpers import the program, so run.py
can use the constants without loading it.
"""

from __future__ import annotations

import os
import random
from typing import Callable, Dict, List, Tuple

WORKLOADS = ("study_sweep", "paper_artifacts", "cli_run")

#: Pool size for ``study_sweep``: pinned so the shape of the work does not
#: follow the host (the provenance record states the host's CPU count).
WORKERS = 2

#: Per-job budget of ``study_sweep``.  Below ~1M instructions every app is
#: still in PowerChop's warm-up and POWERCHOP equals FULL.
STUDY_BUDGET = 1_000_000
STUDY_MODES = ("full", "powerchop", "minimal")

#: ``REPRO_SCALE`` of ``paper_artifacts``: the smallest scale at which
#: POWERCHOP still gates on these apps.
PAPER_SCALE = "0.25"
#: Every suite, plus the bursty-vector (perlbench), streaming (milc),
#: sparse-uniform-vector (namd) and mobile (msn) behaviours the paper names.
PAPER_APPS = ("perlbench", "gobmk", "milc", "namd", "canneal", "msn")
#: fig03's budget, pinned: its default ignores ``REPRO_SCALE``.
FIG03_INSTRUCTIONS = 1_000_000
ARTIFACTS = ("fig12", "fig13", "fig08", "fig16", "fig03")

CLI_MODES = ("full", "powerchop", "minimal", "timeout")
#: The CLI's default budget; the oracle pins it, so a change shows as a
#: mismatch rather than as a speed-up.
CLI_BUDGET = 2_000_000
#: Seconds one pass over the 29 apps takes on the reference host (2-core
#: Xeon); sizes the number of passes to ``--seconds``.
NOMINAL_PASS_S = 45.0


def program_env(workload: str, cache_dir: str, src_dir: str) -> Dict[str, str]:
    """The environment of every program process: every knob it reads is set.

    The caller's ``REPRO_*`` variables are dropped so neither the user's
    environment nor ``~/.cache`` leaks into a run.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=src_dir,
        REPRO_SCALE=PAPER_SCALE if workload == "paper_artifacts" else "1.0",
        REPRO_JOBS=str(WORKERS),
        REPRO_CACHE="1",
        REPRO_CACHE_DIR=cache_dir,
        REPRO_CACHE_BUDGET="0",
    )
    return env


def cli_requests(seed: int, seconds: float, combos: List[str]) -> List[str]:
    """The seeded ``app/mode`` request sequence of ``cli_run``.

    Whole passes over the apps, at least one: each pass requests every app
    once, in a seeded order and with a seeded mode.  Request latency varies
    about 3x between apps (mcf is the slowest), so drawing apps freely would
    make a run's latencies depend more on the seed than on the program; a
    pass keeps the app mix the same in every run.
    """
    rng = random.Random(seed)
    modes: Dict[str, List[str]] = {}
    for combo in combos:
        app, mode = combo.split("/")
        modes.setdefault(app, []).append(mode)
    requests = []
    for _ in range(max(1, round(seconds / NOMINAL_PASS_S))):
        apps = list(modes)
        rng.shuffle(apps)
        requests.extend(f"{app}/{rng.choice(modes[app])}" for app in apps)
    return requests


def study_jobs(seed: int, backend: str = "vectorized") -> List[Tuple[str, object]]:
    """``(app/mode, SimJob)`` for the whole study set, in seeded submission order.

    Every job keeps its profile's pinned workload seed, so the outputs (and
    the simulated work) are the same for every benchmark seed; the seed
    draws the order in which the jobs reach the pool.
    """
    from repro.sim.engine import SimJob
    from repro.sim.simulator import GatingMode
    from repro.workloads.suites import ALL_BENCHMARKS

    jobs = [
        (f"{profile.name}/{mode}", SimJob(
            benchmark=profile.name,
            mode=GatingMode(mode),
            max_instructions=STUDY_BUDGET,
            seed=profile.seed,
            backend=backend,
        ))
        for profile in ALL_BENCHMARKS
        for mode in STUDY_MODES
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def artifact_calls() -> List[Tuple[str, Callable]]:
    """The paper artifacts in harness order: fig13 and fig08 replay fig12's runs."""
    from repro.experiments import (
        fig03_mlc_phases,
        fig08_phase_quality,
        fig12_performance,
        fig13_power_energy,
        fig16_vpu_timeout,
    )

    apps = list(PAPER_APPS)
    return [
        ("fig12", lambda: fig12_performance.run(apps)),
        ("fig13", lambda: fig13_power_energy.run(apps)),
        ("fig08", lambda: fig08_phase_quality.run(apps)),
        ("fig16", lambda: fig16_vpu_timeout.run(apps)),
        ("fig03", lambda: fig03_mlc_phases.run(max_instructions=FIG03_INSTRUCTIONS)),
    ]
