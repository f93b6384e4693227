"""Expected outputs, derived from the ``reference`` backend, and the checks against them.

The reference loop is the repo's oracle: ``tests/test_backends.py`` keeps
every other backend bit-identical to it.  ``expected.json`` holds, for every
operation a workload can issue, a digest of its canonical JSON output plus
the simulated work it does (instructions, CDE invocations).  A run whose
outputs or work differ is reported as failed or invalid, never as faster.

Regenerate (only when the program's results are meant to change)::

    python3 -m perfbench.oracle        # from the repository root; ~10 min on 2 cores
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def canonical(obj: Any) -> str:
    """Canonical JSON text: a JSON round trip first, so int dict keys and
    tuples compare equal to what a JSON consumer reads back."""
    return json.dumps(json.loads(json.dumps(obj)), sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def check_output(expected: Dict[str, Any], observed: Optional[Dict[str, Any]]) -> Optional[str]:
    """Why one operation's output is wrong, or ``None`` if it matches."""
    if observed is None:
        return "no output"
    if "error" in observed:
        return observed["error"]
    if observed.get("digest") != expected["digest"]:
        return "output differs from the reference backend"
    return None


def check_work(expected: Dict[str, int], observed: Dict[str, int]) -> List[str]:
    """Differences between the pinned and the simulated amount of work."""
    return [
        f"{key}: simulated {observed.get(key)}, pinned {value}"
        for key, value in sorted(expected.items())
        if observed.get(key) != value
    ]


class Tally:
    """Failure accounting of one run: every operation checked counts as attempted.

    An operation fails on an exception, a failed record, a non-zero exit or
    an output that differs from its expectation.  A difference in simulated
    work, or a POWERCHOP run that made no gating decision, makes the whole
    run invalid instead.
    """

    def __init__(self, expected_outputs: Dict[str, Dict[str, Any]]) -> None:
        self.expected = expected_outputs
        self.attempted = 0
        self.failures: List[str] = []
        self.invalid: List[str] = []

    def check(self, name: str, observed: Optional[Dict[str, Any]], expected_key: str = "") -> None:
        self.attempted += 1
        entry = self.expected.get(expected_key or name)
        problem = "no expected output" if entry is None else check_output(entry, observed)
        if problem:
            self.failures.append(f"{name}: {problem}")

    def check_work(self, pinned: Dict[str, int], observed: Dict[str, int],
                   undecided: int = 0) -> None:
        """``undecided``: POWERCHOP runs that made no gating decision."""
        self.invalid.extend(check_work(pinned, observed))
        if undecided:
            self.invalid.append(f"{undecided} POWERCHOP runs made no gating decision")

    @property
    def fail_frac(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures and not self.invalid


def work_of(entries: List[Dict[str, Any]]) -> Dict[str, int]:
    """Pinned work of a list of expected per-operation entries."""
    return {
        "sim.instructions": sum(e["instructions"] for e in entries),
        "sim.jobs": sum(e.get("jobs", 1) for e in entries),
        "core.cde_invocations": sum(e["cde_invocations"] for e in entries),
    }


# ------------------------------------------------------------ regeneration


def _cli_entry(combo: str) -> Dict[str, Any]:
    from repro.sim.simulator import GatingMode, run_simulation
    from repro.uarch.config import design_for_suite
    from repro.workloads.suites import get_profile

    from perfbench.workloads import CLI_BUDGET

    app, mode = combo.split("/")
    profile = get_profile(app)
    result = run_simulation(
        design_for_suite(profile.suite), profile, GatingMode(mode),
        max_instructions=CLI_BUDGET, backend="reference",
    )
    return {
        "digest": digest(result.to_dict()),
        "instructions": result.instructions,
        "cde_invocations": result.cde_invocations,
    }


def regenerate() -> Dict[str, Any]:
    import os
    import tempfile
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    from perfbench import body
    from perfbench.workloads import (
        CLI_MODES, FIG03_INSTRUCTIONS, PAPER_APPS, PAPER_SCALE, STUDY_BUDGET,
        WORKERS, study_jobs,
    )
    from repro.sim import backends
    from repro.sim.engine import run_jobs
    from repro.workloads.suites import ALL_BENCHMARKS

    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ.update(REPRO_CACHE="0", REPRO_CACHE_DIR=cache_dir)
        jobs = study_jobs(seed=0, backend="reference")
        records = run_jobs([job for _name, job in jobs], workers=WORKERS)
        sweep = body.sweep_outputs([name for name, _job in jobs], records)

        combos = [f"{p.name}/{mode}" for p in ALL_BENCHMARKS for mode in CLI_MODES]
        with ProcessPoolExecutor(WORKERS, mp_context=get_context("spawn")) as pool:
            cli = dict(zip(combos, pool.map(_cli_entry, combos)))

        os.environ["REPRO_SCALE"] = PAPER_SCALE
        backends.DEFAULT_BACKEND = "reference"
        artifacts = body.run_artifacts()

    for name, entry in list(sweep["outputs"].items()) + list(artifacts["outputs"].items()):
        if entry is None or "error" in entry:
            raise RuntimeError(f"reference run of {name} failed: {entry}")
    return {
        "backend": "reference",
        "study_sweep": {"budget": STUDY_BUDGET, "outputs": sweep["outputs"]},
        "paper_artifacts": {
            "scale": PAPER_SCALE,
            "apps": list(PAPER_APPS),
            "fig03_instructions": FIG03_INSTRUCTIONS,
            "outputs": artifacts["outputs"],
            "work": artifacts["work"],
        },
        "cli_run": {"combos": combos, "outputs": cli},
    }


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    expected = regenerate()
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}")
