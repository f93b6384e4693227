"""Benchmark entry point: one run of one workload, printed as metrics.

    python3 perfbench/run.py --workload study_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it measures the end-to-end
metrics with tracing off; with ``--trace 1`` it runs the timed body untraced
and then traced, and reports the per-layer metrics plus the tracing
overhead.  Every output is checked against the reference-backend oracle
(``expected.json``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records, logs and Chrome traces go to
``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import hostspeed, metrics, oracle, spans, workloads  # noqa: E402

SETUP_SAMPLES = 7
BODY_TIMEOUT_S = 150
REQUEST_TIMEOUT_S = 60


class Run:
    """One invocation: its directory, its checks and its failure tally."""

    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.expected = oracle.load_expected()[workload]
        self.tally = oracle.Tally(self.expected["outputs"])
        self._paths = 0

    def fresh(self, prefix: str) -> Path:
        """A new, numbered path in the run directory."""
        self._paths += 1
        return self.dir / f"{prefix}-{self._paths}"

    def env(self, cache: Path) -> Dict[str, str]:
        cache.mkdir()
        return workloads.program_env(self.workload, str(cache), str(ROOT / "src"))

    def spawn(self, argv: List[str], timeout: float, env: Dict[str, str]) -> Tuple[int, int, bytes]:
        """Run a child to completion; returns (exit code, monotonic start ns, stdout).

        The child gets its own session so a timeout kills it with any pool
        workers it started.
        """
        log = self.dir / "children.log"
        with open(log, "ab") as stderr:
            start = time.monotonic_ns()
            child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=stderr, start_new_session=True)
            try:
                out, _ = child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                out, _ = child.communicate()
                return -1, start, out
        return child.returncode, start, out



# ---------------------------------------------------------- batch workloads


def body(run: Run, trace_dir: Optional[Path] = None, setup_only: bool = False) -> Dict[str, Any]:
    out = run.fresh("body").with_suffix(".json")
    cache = run.fresh("cache")
    argv = [sys.executable, "-m", "perfbench.body", "--workload", run.workload,
            "--seed", str(run.seed), "--out", str(out)]
    if setup_only:
        argv.append("--setup-only")
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    code, start_ns, _ = run.spawn(argv, BODY_TIMEOUT_S, run.env(cache))
    if code != 0:
        raise RuntimeError(f"{run.workload} body exited with {code}; see {run.dir}/children.log")
    with open(out) as handle:
        report = json.load(handle)
    report["setup_s"] = (report["setup_mark_ns"] - start_ns) / 1e9
    report["cache_bytes"] = sum(p.stat().st_size for p in cache.glob("*.json"))
    return report


def checked_body(run: Run, trace_dir: Optional[Path] = None) -> Dict[str, Any]:
    """One timed body with its outputs and simulated work checked."""
    report = body(run, trace_dir)
    outputs = report["outputs"]
    for name in run.expected["outputs"]:
        run.tally.check(name, outputs.get(name))
    if run.workload == "study_sweep":
        done = [o for o in outputs.values() if "error" not in o]
        report["work"] = oracle.work_of(done)
        pinned = oracle.work_of(list(run.expected["outputs"].values()))
        undecided = sum(1 for name, o in outputs.items()
                        if name.endswith("/powerchop") and o.get("cde_invocations") == 0)
    else:
        pinned = run.expected["work"]
        undecided = report["undecided_powerchop_runs"]
    run.tally.check_work(pinned, report["work"], undecided)
    report["pinned"] = pinned
    return report


def batch(run: Run, trace: bool) -> Dict[str, float]:
    before = hostspeed.calibrate()
    if not trace:
        body(run, setup_only=True)  # warm-up: byte-code and page caches
        setups = [body(run, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        report = checked_body(run)
        setups.append(report["setup_s"])
        host = hostspeed.factor(before + hostspeed.calibrate())
        return {
            **timed(statistics.median(setups), report["wall_s"], host, report["work"]),
            "peak_rss_mb": peak_rss_mb(),
            **extras(run, report["sim_pc"]),
        }
    plain = checked_body(run)
    between = hostspeed.calibrate()
    trace_dir = run.dir / "trace"
    trace_dir.mkdir()
    traced = checked_body(run, trace_dir)
    after = hostspeed.calibrate()
    values = traced_layers(run, trace_dir, traced["cache_bytes"],
                           traced["pinned"]["sim.instructions"])
    values["trace.overhead_frac"] = overhead(
        plain["wall_s"], traced["wall_s"], before, between, after)
    values["host_factor"] = hostspeed.factor(before + between + after)
    values.update(extras(run, plain["sim_pc"]))
    return values


# --------------------------------------------------------------- cli_run


def cli_request(run: Run, combo: str, trace_dir: Optional[Path],
                env: Dict[str, str]) -> Dict[str, Any]:
    app, mode = combo.split("/")
    args = ["run", app, "-m", mode, "--json"]
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro", *args]
    else:
        argv = [sys.executable, "-m", "perfbench.cli_runner", str(trace_dir), *args]
    code, _start_ns, out = run.spawn(argv, REQUEST_TIMEOUT_S, env)
    if code != 0:
        return {"error": f"exit code {code}"}
    try:
        result = json.loads(out)
    except ValueError as exc:
        return {"error": f"unparsable output: {exc}"}
    return {"digest": oracle.digest(result),
            "instructions": result["instructions"],
            "cde_invocations": result["cde_invocations"]}


def cli_loop(run: Run, requests: List[str], trace_dir: Optional[Path] = None) -> Dict[str, Any]:
    latencies, done = [], []
    env = run.env(run.fresh("cache"))
    start = time.monotonic()
    for i, combo in enumerate(requests):
        sent = time.monotonic()
        observed = cli_request(run, combo, trace_dir, env)
        latencies.append(time.monotonic() - sent)
        run.tally.check(f"request {i} ({combo})", observed, combo)
        if "error" not in observed:
            done.append((combo, observed))
    wall = time.monotonic() - start
    pinned = oracle.work_of([run.expected["outputs"][c] for c in requests])
    work = oracle.work_of([observed for _combo, observed in done])
    undecided = sum(1 for combo, observed in done
                    if combo.endswith("/powerchop") and observed["cde_invocations"] == 0)
    run.tally.check_work(pinned, work, undecided)
    return {"wall_s": wall, "latencies": latencies, "work": work, "pinned": pinned}


def cli(run: Run, seconds: float, trace: bool) -> Dict[str, float]:
    requests = workloads.cli_requests(run.seed, seconds, run.expected["combos"])
    before = hostspeed.calibrate()
    if not trace:
        env = run.env(run.fresh("cache"))
        designs = [sys.executable, "-m", "repro", "designs"]
        setups = []
        for i in range(SETUP_SAMPLES + 1):  # the first is a warm-up
            code, start_ns, _ = run.spawn(designs, REQUEST_TIMEOUT_S, env)
            if code != 0:
                raise RuntimeError(f"`repro designs` exited with {code}")
            if i:
                setups.append((time.monotonic_ns() - start_ns) / 1e9)
        loop = cli_loop(run, requests)
        host = hostspeed.factor(before + hostspeed.calibrate())
        return {
            **timed(statistics.median(setups), loop["wall_s"], host, loop["work"]),
            "peak_rss_mb": peak_rss_mb(),
            **extras(run, None, [t / host for t in loop["latencies"]]),
        }
    plain = cli_loop(run, requests)
    between = hostspeed.calibrate()
    trace_dir = run.dir / "trace"
    trace_dir.mkdir()
    traced = cli_loop(run, requests, trace_dir)
    after = hostspeed.calibrate()
    values = traced_layers(run, trace_dir, 0, traced["pinned"]["sim.instructions"])
    values["trace.overhead_frac"] = overhead(
        plain["wall_s"], traced["wall_s"], before, between, after)
    values["host_factor"] = hostspeed.factor(before + between + after)
    host = hostspeed.factor(before + between)
    values.update(extras(run, None, [t / host for t in plain["latencies"]]))
    return values


# ----------------------------------------------------------------- shared


def timed(setup: float, wall: float, host: float, work: Dict[str, int]) -> Dict[str, float]:
    """The timed end-to-end metrics at reference-host speed, with the raw figures.

    Measured times are divided by the run's host factor
    (:mod:`perfbench.hostspeed`); the raw times and the factor are kept beside.
    """
    return {
        "setup_s": setup / host,
        "wall_s": wall / host,
        "sim_minstr_per_s": work["sim.instructions"] / wall * host / 1e6,
        "raw.setup_s": setup,
        "raw.wall_s": wall,
        "host_factor": host,
        **work,
    }


def overhead(plain: float, traced: float, before, between, after) -> float:
    """Traced over untraced wall time - 1, each at the host speed around it."""
    return (traced / hostspeed.factor(between + after)) / (
        plain / hostspeed.factor(before + between)) - 1.0


def peak_rss_mb() -> float:
    """Highest peak RSS of this process, its bodies, their pool workers and requests."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def extras(run: Run, sim_pc: Optional[Dict[str, float]],
           latencies: Optional[List[float]] = None) -> Dict[str, float]:
    """Workload-specific figures; 0 where the workload has none."""
    p50 = statistics.median(latencies) if latencies else 0.0
    tail, pct = metrics.tail(latencies or [])
    sim_pc = sim_pc or {"power_saving_pct": 0.0, "slowdown_pct": 0.0}
    return {
        "cli_p50_s": p50,
        "cli_tail_s": tail or 0.0,
        "cli_tail_pct": pct or 0.0,
        "cli_samples": len(latencies or []),
        "fail_frac": run.tally.fail_frac,
        "sim_pc_power_saving_pct": sim_pc["power_saving_pct"],
        "sim_pc_slowdown_pct": sim_pc["slowdown_pct"],
    }


def traced_layers(run: Run, trace_dir: Path, put_bytes: int,
                  pinned_instructions: int) -> Dict[str, float]:
    """Per-layer metrics of the traced body; its spans also go to ``trace.json``."""
    all_spans = spans.load_dir(trace_dir)
    with open(run.dir / "trace.json", "w") as handle:
        json.dump(spans.chrome_trace(all_spans, workload=run.workload, seed=run.seed), handle)
    workers = workloads.WORKERS if run.workload == "study_sweep" else 1
    values = metrics.layer_metrics(all_spans, workers, put_bytes)
    run.tally.check_work({"traced sim.instructions": pinned_instructions},
                         {"traced sim.instructions": values["sim.instructions"]})
    return values


def provenance(workload: str) -> Dict[str, Any]:
    """Host and code identity stored with every result set."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "backend_requested": "vectorized" if workload == "study_sweep" else "default",
        "workers": workloads.WORKERS if workload == "study_sweep" else 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="PowerChop reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.trace)
    if args.workload == "cli_run":
        values = cli(run, args.seconds, bool(args.trace))
    else:
        values = batch(run, bool(args.trace))
    values["ok_frac"] = 1.0 - values["fail_frac"]

    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    correct = run.tally.correct
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": provenance(args.workload), "values": values,
        "failures": run.tally.failures, "invalid": run.tally.invalid,
    }
    with open(run.dir / "result.json", "w") as handle:
        json.dump(record, handle, indent=1)
    for cache in run.dir.glob("cache-*"):
        shutil.rmtree(cache)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in record["host"].items()))
    own = ("cli_" if args.workload == "cli_run" else "sim_pc_", "fail_frac", "sim.",
           "core.cde_invocations")
    shown = list(table) + ([] if args.trace else [
        row for row in metrics.PER_LAYER if row[0].startswith(own)] + [
        ("raw.setup_s", "s"), ("raw.wall_s", "s")]) + [("host_factor", "x")]
    for name, unit, *_ in shown:
        value = values[name]
        shown_value = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"  {name:<40} {shown_value} {unit}")
    for line in run.tally.failures + run.tally.invalid:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": len(run.tally.failures),
        "metrics": metrics.as_metrics(values, table),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
