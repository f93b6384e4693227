"""Metric names, the statistics rules, and per-layer aggregation of spans.

``END_TO_END`` and ``PER_LAYER`` are what the benchmark emits; the self-tests
check them against ``BENCHMARK.json``.  Every name matches ``NAME_RE``.
Per-layer seconds and counts are totals over the run's timed body; a layer
a workload does not exercise reads 0.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.spans import self_ns

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: (name, unit, better, bound).  Every workload reports every one of them,
#: so none may be 0: failures are reported as ``ok_frac`` = 1 - fail_frac.
#: The three timed metrics are at reference-host speed (``hostspeed.py``).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("sim_minstr_per_s", "Minstr/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("ok_frac", "fraction", "higher", 0.01),
)

BACKENDS = ("reference", "fastpath", "vectorized")
MODES = ("full", "powerchop", "minimal", "timeout")
EXPERIMENTS = ("fig12", "fig13", "fig08", "fig16", "fig03", "timeseries_ipc")

#: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("import.s", "s", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("workloads.build_calls", "count", "lower"),
    ("simulator.init_s", "s", "lower"),
    ("simulator.init_calls", "count", "lower"),
    ("backends.run_s", "s", "lower"),
    *((f"backends.ns_per_instr.{b}.{m}", "ns", "lower") for b in BACKENDS for m in MODES),
    *((f"backends.runs.{b}", "count", "higher") for b in BACKENDS),
    ("core.cde_s", "s", "lower"),
    ("core.cde_calls", "count", "lower"),
    ("core.windows", "count", "higher"),
    ("core.cde_invocations", "count", "higher"),
    ("core.pvt_hit_ratio", "fraction", "higher"),
    ("core.pvt_lookups", "count", "higher"),
    ("power.finalize_s", "s", "lower"),
    ("power.switches", "count", "lower"),
    ("bt.translations_built", "count", "lower"),
    ("bt.interpreted_instructions", "count", "lower"),
    ("uarch.l1_accesses", "count", "higher"),
    ("uarch.l1_misses", "count", "lower"),
    ("uarch.mlc_misses", "count", "lower"),
    ("uarch.mispredicts", "count", "lower"),
    ("engine.key_s", "s", "lower"),
    ("engine.key_calls", "count", "lower"),
    ("engine.cache_get_s", "s", "lower"),
    ("engine.cache_gets", "count", "lower"),
    ("engine.cache_hit_ratio", "fraction", "higher"),
    ("engine.cache_put_s", "s", "lower"),
    ("engine.cache_puts", "count", "lower"),
    ("engine.cache_put_bytes", "bytes", "lower"),
    ("engine.execute_s", "s", "lower"),
    ("engine.execute_calls", "count", "lower"),
    ("engine.run_jobs_s", "s", "lower"),
    ("engine.pool_busy_frac", "fraction", "higher"),
    ("engine.run_job_calls", "count", "lower"),
    *((f"experiments.{e}_s", "s", "lower") for e in EXPERIMENTS),
    ("cli.main_s", "s", "lower"),
    ("cli_p50_s", "s", "lower"),
    ("cli_tail_s", "s", "lower"),
    ("cli_tail_pct", "%", "higher"),
    ("cli_samples", "count", "higher"),
    ("fail_frac", "fraction", "lower"),
    ("sim_pc_power_saving_pct", "%", "higher"),
    ("sim_pc_slowdown_pct", "%", "lower"),
    ("sim.instructions", "count", "higher"),
    ("sim.jobs", "count", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def tail(samples: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    With the samples sorted, the k-th smallest has ``n - k`` beyond it, so
    the answer is the ``(n - 10)``-th smallest, at percentile ``100 (n - 10) / n``.
    ``(None, None)`` when there are ten samples or fewer.
    """
    n = len(samples)
    if n <= 10:
        return None, None
    k = n - 10
    return sorted(samples)[k - 1], 100.0 * k / n


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def layer_metrics(all_spans: Iterable[Dict[str, Any]], workers: int = 1,
                  cache_put_bytes: int = 0) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced body (all processes)."""
    all_spans = list(all_spans)
    total: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for s in all_spans:
        total[s["name"]] = total.get(s["name"], 0) + s["end_ns"] - s["start_ns"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1

    def secs(name: str) -> float:
        return total.get(name, 0) / 1e9

    own = self_ns(all_spans)
    runs = [s for s in all_spans if s["name"] == "backends.run"]
    counted = ("instructions", "windows", "cde_invocations", "pvt_lookups", "pvt_hits",
               "switches", "translations_built", "interpreted_instructions",
               "l1_accesses", "l1_misses", "mlc_misses", "mispredicts")
    sums = {key: sum(s["args"][key] for s in runs) for key in counted}
    gets = [s for s in all_spans if s["name"] == "engine.cache_get"]
    run_jobs_ns = total.get("engine.run_jobs", 0)

    out: Dict[str, float] = {
        "import.s": secs("import"),
        "workloads.build_s": secs("workloads.build"),
        "workloads.build_calls": calls.get("workloads.build", 0),
        "simulator.init_s": secs("simulator.init"),
        "simulator.init_calls": calls.get("simulator.init", 0),
        "backends.run_s": sum(own[(s["pid"], s["id"])] for s in runs) / 1e9,
    }
    for backend in BACKENDS:
        for mode in MODES:
            cell = [s for s in runs if s["args"]["backend"] == backend and s["args"]["mode"] == mode]
            instructions = sum(s["args"]["instructions"] for s in cell)
            ns = sum(s["end_ns"] - s["start_ns"] for s in cell)
            out[f"backends.ns_per_instr.{backend}.{mode}"] = ns / instructions if instructions else 0.0
    for backend in BACKENDS:
        out[f"backends.runs.{backend}"] = sum(1 for s in runs if s["args"]["backend"] == backend)
    out.update({
        "core.cde_s": secs("core.cde"),
        "core.cde_calls": calls.get("core.cde", 0),
        "core.windows": sums["windows"],
        "core.cde_invocations": sums["cde_invocations"],
        "core.pvt_hit_ratio": sums["pvt_hits"] / sums["pvt_lookups"] if sums["pvt_lookups"] else 0.0,
        "core.pvt_lookups": sums["pvt_lookups"],
        "power.finalize_s": secs("power.finalize"),
        "power.switches": sums["switches"],
        "bt.translations_built": sums["translations_built"],
        "bt.interpreted_instructions": sums["interpreted_instructions"],
        "uarch.l1_accesses": sums["l1_accesses"],
        "uarch.l1_misses": sums["l1_misses"],
        "uarch.mlc_misses": sums["mlc_misses"],
        "uarch.mispredicts": sums["mispredicts"],
        "engine.key_s": secs("engine.key"),
        "engine.key_calls": calls.get("engine.key", 0),
        "engine.cache_get_s": secs("engine.cache_get"),
        "engine.cache_gets": len(gets),
        "engine.cache_hit_ratio": (
            sum(1 for s in gets if s["args"]["hit"]) / len(gets) if gets else 0.0),
        "engine.cache_put_s": secs("engine.cache_put"),
        "engine.cache_puts": calls.get("engine.cache_put", 0),
        "engine.cache_put_bytes": cache_put_bytes,
        "engine.execute_s": secs("engine.execute"),
        "engine.execute_calls": calls.get("engine.execute", 0),
        "engine.run_jobs_s": run_jobs_ns / 1e9,
        "engine.pool_busy_frac": (
            total.get("engine.execute", 0) / (workers * run_jobs_ns) if run_jobs_ns else 0.0),
        "engine.run_job_calls": calls.get("engine.run_job", 0),
    })
    for experiment in EXPERIMENTS:
        out[f"experiments.{experiment}_s"] = secs(f"experiments.{experiment}")
    out["cli.main_s"] = secs("cli.main")
    out["sim.instructions"] = sums["instructions"]
    out["sim.jobs"] = len(runs)
    return out


def as_metrics(values: Dict[str, float], table: Sequence[Tuple]) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for exactly the names of ``table``."""
    return {row[0]: {"value": values[row[0]], "unit": row[1]} for row in table}


def names(table: Sequence[Tuple]) -> List[str]:
    return [row[0] for row in table]
