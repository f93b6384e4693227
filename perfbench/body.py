"""Timed body of the batch workloads, run in a fresh interpreter.

    python3 -m perfbench.body --workload study_sweep --seed 1 --out result.json \
        [--setup-only] [--trace-dir DIR]

The process imports the program and builds its inputs, records the set-up
mark (``time.monotonic_ns``, the clock run.py read before starting it),
then runs the timed body and writes wall time, per-operation outputs and
simulated work to ``--out``.  ``--setup-only`` stops at the mark.  With
``--trace-dir`` the layer wrappers of :mod:`perfbench.spans` are installed
after the mark and every process's spans land in that directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import oracle, spans, workloads


def _span(recorder: Optional[spans.Recorder], name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _error(exc: BaseException) -> Dict[str, str]:
    return {"error": f"{type(exc).__name__}: {exc}"}


def sweep_outputs(names: List[str], records) -> Dict[str, Any]:
    """Per-job outputs and the PowerChop-vs-FULL means of one study sweep."""
    from repro.sim.results import power_reduction, slowdown

    outputs: Dict[str, Any] = {}
    results = {}
    for name, record in zip(names, records):
        if not record.ok:
            outputs[name] = {"error": record.error}
            continue
        result = record.result
        results[name] = result
        outputs[name] = {
            "digest": oracle.digest(result.to_dict()),
            "instructions": result.instructions,
            "cde_invocations": result.cde_invocations,
        }
    savings, slowdowns = [], []
    for name in names:
        app, mode = name.split("/")
        if mode == "powerchop" and name in results and f"{app}/full" in results:
            full, chopped = results[f"{app}/full"], results[name]
            savings.append(power_reduction(full, chopped))
            slowdowns.append(slowdown(full, chopped))
    return {
        "outputs": outputs,
        "sim_pc": _pc_pct(savings, slowdowns),
    }


def _pc_pct(savings: List[float], slowdowns: List[float]) -> Dict[str, float]:
    if not savings:
        return {"power_saving_pct": 0.0, "slowdown_pct": 0.0}
    return {
        "power_saving_pct": 100.0 * sum(savings) / len(savings),
        "slowdown_pct": 100.0 * sum(slowdowns) / len(slowdowns),
    }


class WorkTally:
    """Counts every simulation a serial workload runs (instructions, CDE calls).

    A plain counter around ``HybridSimulator.run``, kept on in untraced runs
    too, so the simulated work of ``paper_artifacts`` is pinned on every run.
    """

    def __init__(self) -> None:
        self.runs: List[Dict[str, Any]] = []

    @contextlib.contextmanager
    def installed(self):
        from repro.sim.simulator import HybridSimulator

        original = HybridSimulator.run
        tally = self.runs

        def counted(simulator, *args, **kwargs):
            result = original(simulator, *args, **kwargs)
            tally.append({"mode": simulator.mode.value,
                          "instructions": result.instructions,
                          "cde_invocations": result.cde_invocations})
            return result

        HybridSimulator.run = counted
        try:
            yield self
        finally:
            HybridSimulator.run = original

    def work(self) -> Dict[str, int]:
        return oracle.work_of(self.runs)

    def undecided_powerchop_runs(self) -> int:
        return sum(1 for r in self.runs if r["mode"] == "powerchop" and not r["cde_invocations"])


def run_artifacts(recorder: Optional[spans.Recorder] = None, calls=None) -> Dict[str, Any]:
    """Regenerate the paper artifacts serially; returns outputs, work and timings."""
    import dataclasses

    calls = calls if calls is not None else workloads.artifact_calls()
    tally = WorkTally()
    outputs: Dict[str, Any] = {}
    summaries: Dict[str, Dict[str, float]] = {}
    start = time.perf_counter()
    with tally.installed():
        for name, call in calls:
            try:
                with _span(recorder, f"experiments.{name}"):
                    result = call()
            except Exception as exc:  # one broken artifact must not hide the others
                outputs[name] = _error(exc)
                continue
            outputs[name] = {"digest": oracle.digest(dataclasses.asdict(result))}
            summaries[name] = result.summary
    wall = time.perf_counter() - start
    sim_pc = _pc_pct([], [])
    if "fig12" in summaries and "fig13" in summaries:
        sim_pc = {
            "power_saving_pct": 100.0 * summaries["fig13"]["mean_power_reduction"],
            "slowdown_pct": 100.0 * summaries["fig12"]["mean_powerchop_slowdown"],
        }
    return {
        "wall_s": wall,
        "outputs": outputs,
        "work": tally.work(),
        "undecided_powerchop_runs": tally.undecided_powerchop_runs(),
        "sim_pc": sim_pc,
    }


def run_sweep(jobs, recorder: Optional[spans.Recorder] = None) -> Dict[str, Any]:
    from repro.sim.engine import run_jobs

    names = [name for name, _job in jobs]
    start = time.perf_counter()
    try:
        with _span(recorder, "engine.run_jobs"):
            records = run_jobs([job for _name, job in jobs], workers=workloads.WORKERS)
    except Exception as exc:  # the whole batch failed: every job counts
        wall = time.perf_counter() - start
        return {"wall_s": wall, "outputs": {name: _error(exc) for name in names},
                "sim_pc": _pc_pct([], [])}
    wall = time.perf_counter() - start
    out = sweep_outputs(names, records)
    out["wall_s"] = wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study_sweep", "paper_artifacts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args(argv)

    import_start = time.perf_counter_ns()
    if args.workload == "study_sweep":
        import repro.sim.engine  # noqa: F401
        import_end = time.perf_counter_ns()
        jobs = workloads.study_jobs(args.seed)
    else:
        calls = workloads.artifact_calls()
        import_end = time.perf_counter_ns()
    setup_mark_ns = time.monotonic_ns()
    report: Dict[str, Any] = {"setup_mark_ns": setup_mark_ns}

    if not args.setup_only:
        recorder = None
        if args.trace_dir:
            recorder = spans.install(Path(args.trace_dir))
            recorder.add("import", import_start, import_end)
        if args.workload == "study_sweep":
            report.update(run_sweep(jobs, recorder))
        else:
            report.update(run_artifacts(recorder, calls))
        if recorder is not None:
            recorder.flush()

    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
