"""In-memory span recorder and the timing wrappers around the program's layers.

The wrappers are installed from the benchmark's own files, around the public
entry points of each layer; nothing under ``src/`` is edited.  A span is a
``dict`` with ``name``, ``pid``, ``id``, ``parent`` (the enclosing span in
the same process, or ``None``), ``start_ns``/``end_ns`` (``time.perf_counter_ns``,
which reads the system-wide monotonic clock on Linux, so spans from pool
workers and request subprocesses share one time base) and ``args``.

Spans stay in memory.  Pool workers and CLI request processes append theirs
to ``<trace_dir>/spans-<pid>.jsonl`` when they finish a unit of work; the
process that owns the run merges those files at the end (:func:`load_dir`).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

class Recorder:
    """Spans of one process, kept in memory until :meth:`flush`."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_id = 0

    def reset_after_fork(self) -> None:
        """A forked child starts with no spans and no open parent."""
        self.pid = os.getpid()
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        self._next_id += 1
        record = {
            "name": name,
            "pid": self.pid,
            "id": self._next_id,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": 0,
            "args": args,
        }
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def add(self, name: str, start_ns: int, end_ns: int, **args: Any) -> None:
        """Record a span measured before the recorder existed (imports)."""
        self._next_id += 1
        self.spans.append({
            "name": name, "pid": self.pid, "id": self._next_id,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": start_ns, "end_ns": end_ns, "args": args,
        })

    def flush(self) -> None:
        """Append this process's spans to its JSON-lines file and forget them."""
        if not self.spans:
            return
        path = self.trace_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []


def load_dir(trace_dir: Path) -> List[Dict[str, Any]]:
    """All spans flushed into ``trace_dir`` by any process."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_ns(spans: Iterable[Dict[str, Any]]) -> Dict[tuple, int]:
    """Self time of every span: its duration minus the time its children cover.

    Keys are ``(pid, id)``.  Children are clipped to the parent's interval
    and overlapping children are counted once.
    """
    spans = list(spans)
    children: Dict[tuple, List[Dict[str, Any]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault((record["pid"], record["parent"]), []).append(record)
    out: Dict[tuple, int] = {}
    for record in spans:
        key = (record["pid"], record["id"])
        start, end = record["start_ns"], record["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(key, ()), key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[key] = (end - start) - covered
    return out


def chrome_trace(spans: Iterable[Dict[str, Any]], **metadata: Any) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON (complete events), as Perfetto loads it."""
    spans = sorted(spans, key=lambda s: (s["pid"], s["start_ns"]))
    base = min((s["start_ns"] for s in spans), default=0)
    events = [
        {
            "name": s["name"],
            "cat": s["name"].split(".")[0],
            "ph": "X",
            "ts": (s["start_ns"] - base) / 1e3,
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "pid": s["pid"],
            "tid": s["pid"],
            "args": s["args"],
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}


# ---------------------------------------------------------------- wrappers

#: The recorder of this process while tracing is installed.  Module-level
#: because the wrappers replace module and class attributes of the program,
#: which are process-wide too.
_ACTIVE: Optional[Recorder] = None
_EXECUTE_JOB: Optional[Callable] = None
_OWNER_PID = 0


def _timed(name: str, fn: Callable, args_of: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        recorder = _ACTIVE
        if recorder is None:
            return fn(*args, **kwargs)
        with recorder.span(name) as record:
            result = fn(*args, **kwargs)
            if args_of is not None:
                record["args"].update(args_of(args, result))
            return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _run_args(args, result) -> Dict[str, Any]:
    simulator = args[0]
    return {
        "backend": simulator.backend_name,
        "mode": simulator.mode.value,
        "instructions": result.instructions,
        "windows": result.windows,
        "cde_invocations": result.cde_invocations,
        "pvt_lookups": result.pvt_lookups,
        "pvt_hits": result.pvt_hits,
        "switches": sum(result.switch_counts.values()),
        "translations_built": result.translations_built,
        "interpreted_instructions": result.interpreted_instructions,
        "l1_accesses": result.l1_hits + result.l1_misses,
        "l1_misses": result.l1_misses,
        "mlc_misses": result.mlc_misses,
        "mispredicts": result.mispredicts,
    }


def traced_execute_job(job):
    """Stand-in for ``repro.sim.engine.execute_job`` while tracing.

    Module-level so the process pool can pickle it by reference.  In a pool
    worker it flushes the job's spans to the worker's file before returning.
    Workers inherit the wrappers by ``fork``, the program's pool start
    method on Linux; a worker started any other way fails the job loudly.
    """
    if _ACTIVE is None:
        raise RuntimeError("tracing needs pool workers started by fork")
    with _ACTIVE.span("engine.execute"):
        record = _EXECUTE_JOB(job)
    if _ACTIVE.pid != _OWNER_PID:
        _ACTIVE.flush()
    return record


def install(trace_dir: Path) -> Recorder:
    """Install the timing wrappers in this process and return its recorder.

    Call it after the setup mark: the layers it imports to wrap then count
    as tracing cost, not as the program's set-up.
    """
    global _ACTIVE, _EXECUTE_JOB, _OWNER_PID
    if _ACTIVE is not None:
        return _ACTIVE
    from repro.core.cde import CriticalityDecisionEngine
    from repro.power.accounting import EnergyAccounting
    from repro.sim import engine
    from repro.sim.simulator import HybridSimulator
    from repro.workloads import profiles

    recorder = Recorder(trace_dir)
    _OWNER_PID = os.getpid()
    os.register_at_fork(after_in_child=recorder.reset_after_fork)

    for cls, attr, name, args_of in (
        (HybridSimulator, "__init__", "simulator.init", None),
        (HybridSimulator, "run", "backends.run", _run_args),
        (CriticalityDecisionEngine, "on_pvt_miss", "core.cde", None),
        (CriticalityDecisionEngine, "feed_profile_window", "core.cde", None),
        (EnergyAccounting, "finalize", "power.finalize", None),
        (engine.SimJob, "key", "engine.key", None),
        (engine.ResultCache, "get", "engine.cache_get",
         lambda args, result: {"hit": result is not None}),
        (engine.ResultCache, "put", "engine.cache_put", None),
    ):
        setattr(cls, attr, _timed(name, getattr(cls, attr), args_of))

    functions = [
        (profiles.build_workload, "workloads.build"),
        (engine.run_job, "engine.run_job"),
    ]
    # Only a workload that already loaded the experiments layer uses it;
    # importing it here would add to every traced CLI request.
    experiments_common = sys.modules.get("repro.experiments.common")
    if experiments_common is not None:
        functions.append((experiments_common.timeseries_ipc, "experiments.timeseries_ipc"))
    for original, name in functions:
        _replace_everywhere(original, _timed(name, original))

    _EXECUTE_JOB = engine.execute_job
    _replace_everywhere(engine.execute_job, traced_execute_job)
    _ACTIVE = recorder
    return recorder
