"""Unified simulation engine: declarative jobs, result caching, sweeps.

This is the single way to describe, instrument, run and cache simulations:

- :class:`SimJob` — a frozen, hashable description of one run (benchmark or
  inline profile, design point, gating mode, PowerChop configuration,
  instruction budget, seed, probe set) with a stable content-hash
  :meth:`~SimJob.key`;
- :func:`execute_job` — run one job from scratch (also the process-pool
  worker function, so everything a job references must be picklable);
- :func:`run_job` — execute with two cache layers: a per-process memo (so
  repeated calls return the *same* objects) and a persistent on-disk JSON
  :class:`ResultCache` keyed by job hash (salted with a fingerprint of
  the package's sources; entries also carry the schema version);
- :class:`SweepRunner` — run batches of jobs across a
  ``ProcessPoolExecutor`` (worker count from ``REPRO_JOBS``; results come
  back in job order regardless of completion order, bit-identical to the
  serial path).  It is the only batch runner: a job that raises or kills
  its worker yields a failed record, never an aborted batch.

Environment knobs: ``REPRO_JOBS`` (default worker count, default 1),
``REPRO_CACHE_DIR`` (cache directory, default ``~/.cache/repro-powerchop``),
``REPRO_CACHE=0`` to disable the on-disk layer entirely and
``REPRO_CACHE_BUDGET`` (bytes; 0 or unset = unbounded) to cap the on-disk
cache size with LRU eviction.  ``python -m repro cache status|gc``
inspects and trims the on-disk cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import PowerChopConfig
from repro.obs.tracer import OBS_LEVELS
from repro.sim.backends import resolve_backend_name
from repro.sim.probes import ProbeSpec
from repro.sim.results import SimulationResult
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import DesignPoint, design_for_suite
from repro.workloads.profiles import BenchmarkProfile, build_workload
from repro.workloads.suites import get_profile

__all__ = [
    "NON_KEY_FIELDS",
    "SimJob",
    "JobRecord",
    "ResultCache",
    "SweepRunner",
    "execute_job",
    "failed_record",
    "run_job",
    "run_jobs",
    "clear_memo",
    "default_workers",
]

#: Bump when result semantics or the cache schema change; an entry whose
#: ``schema`` differs is a miss.  v2: POWERCHOP results gained the
#: static-pre-pass counters in ``extra``.  v3: results gained the ``metrics`` registry
#: snapshot (``repro.obs.metrics``, ``METRICS_SCHEMA_VERSION``) and jobs
#: the ``obs_level`` field.  v4: jobs gained the ``backend`` field
#: (excluded from the key — see ``NON_KEY_FIELDS``).
CACHE_SCHEMA_VERSION = 4

#: Job fields deliberately EXCLUDED from :meth:`SimJob.key`:
#:
#: - ``backend``: every execution backend is bit-identical to the
#:   reference loop (enforced by tests/test_backends.py), so runs that
#:   differ only in backend produce the same result and may share cache
#:   entries;
#: - ``configure``: an opaque callable that cannot be content-hashed; its
#:   effect is represented in the key by the mandatory ``cache_tag``
#:   instead (enforced in ``__post_init__``).
#:
#: Adding a field to SimJob?  It must appear either in ``key()`` or here —
#: tests/test_backends.py cross-checks the split is exhaustive.
NON_KEY_FIELDS = frozenset({"backend", "configure"})

_MANAGED_UNITS = ("vpu", "bpu", "mlc")


@functools.lru_cache(maxsize=None)
def _code_fingerprint() -> str:
    """SHA-256 over the sorted ``(relative path, bytes)`` of the package's sources.

    Salts :meth:`SimJob.key`, so a cached result is only ever replayed by
    the code that produced it.  Computed once per process, on first use:
    commands that never build a key never read the sources.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for rel, path in sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    ):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


# ------------------------------------------------------------------- jobs


@dataclass(frozen=True)
class SimJob:
    """Declarative description of one simulation run.

    Exactly one of ``benchmark`` (a suite-registry name) or ``profile`` (an
    inline :class:`BenchmarkProfile`) names the workload; the workload is
    reconstructed from the spec inside each worker process, so jobs stay
    cheap to ship around.  ``design=None`` uses the paper's suite pairing.

    ``configure`` is an escape hatch for imperative simulator tweaks the
    spec cannot express.  Because the callback's effect is invisible to the
    content hash, any job carrying one *must* also carry a non-empty
    ``cache_tag`` that uniquely names the configuration — otherwise cached
    results could be served for a differently-configured run.
    """

    benchmark: str = ""
    profile: Optional[BenchmarkProfile] = None
    design: Optional[DesignPoint] = None
    mode: GatingMode = GatingMode.FULL
    powerchop_config: Optional[PowerChopConfig] = None
    managed_units: Tuple[str, ...] = _MANAGED_UNITS
    timeout_cycles: float = 20_000.0
    max_instructions: int = 1_000_000
    seed: Optional[int] = None
    collect_phase_log: bool = False
    probes: Tuple[ProbeSpec, ...] = ()
    obs_level: str = "off"
    #: Execution backend name ("reference" / "fastpath" / "vectorized";
    #: None = the registry default).  In ``NON_KEY_FIELDS``: backends are
    #: bit-identical, so results are backend-independent.
    backend: Optional[str] = None
    configure: Optional[Callable[[HybridSimulator], None]] = None
    cache_tag: str = ""

    def __post_init__(self) -> None:
        if not self.benchmark and self.profile is None:
            raise ValueError("SimJob needs a benchmark name or an inline profile")
        if self.benchmark and self.profile is not None:
            raise ValueError("pass either benchmark or profile, not both")
        if self.max_instructions < 1:
            raise ValueError("max_instructions must be >= 1")
        if self.timeout_cycles <= 0:
            raise ValueError("timeout_cycles must be positive")
        unknown = set(self.managed_units) - set(_MANAGED_UNITS)
        if unknown:
            raise ValueError(f"unknown managed units {sorted(unknown)}")
        if self.obs_level not in OBS_LEVELS:
            raise ValueError(
                f"obs_level must be one of {OBS_LEVELS}, got {self.obs_level!r}"
            )
        # Validates the name at job-construction time rather than inside
        # a worker.
        resolve_backend_name(self.backend)
        if self.configure is not None and not self.cache_tag:
            raise ValueError(
                "a configure callback requires a non-empty cache_tag: the "
                "callback's effect is not part of the job hash, so an "
                "untagged job could be served stale results for a "
                "different configuration"
            )

    # ------------------------------------------------------------ resolve

    def resolve_profile(self) -> BenchmarkProfile:
        return self.profile if self.profile is not None else get_profile(self.benchmark)

    def resolve_design(self, profile: Optional[BenchmarkProfile] = None) -> DesignPoint:
        if self.design is not None:
            return self.design
        profile = profile if profile is not None else self.resolve_profile()
        return design_for_suite(profile.suite)

    def resolve_config(self) -> Optional[PowerChopConfig]:
        """The PowerChop config this job runs with (None outside POWERCHOP)."""
        if self.mode is not GatingMode.POWERCHOP:
            return None
        config = self.powerchop_config or PowerChopConfig(
            managed_units=self.managed_units
        )
        if self.collect_phase_log and not config.collect_phase_vectors:
            config = replace(config, collect_phase_vectors=True)
        return config

    # ---------------------------------------------------------------- key

    def key(self) -> str:
        """Stable content hash identifying this job across processes.

        Frozen-dataclass reprs are deterministic functions of their field
        values, which makes them a canonical text form for hashing.  Every
        field participates except the documented ``NON_KEY_FIELDS`` (the
        ``configure`` callback is represented by ``cache_tag``, enforced
        non-empty above); the package's source fingerprint salts the hash
        so results cached by other code never alias this code's (and,
        since ``CACHE_SCHEMA_VERSION`` lives in one of those sources, a
        schema bump changes every key too).
        """
        parts = (
            f"code={_code_fingerprint()}",
            f"benchmark={self.benchmark}",
            f"profile={self.profile!r}",
            f"design={self.design!r}",
            f"mode={self.mode.value}",
            f"config={self.resolve_config()!r}",
            f"managed={self.managed_units!r}",
            f"timeout={self.timeout_cycles!r}",
            f"budget={self.max_instructions}",
            f"seed={self.seed!r}",
            f"phase_log={self.collect_phase_log!r}",
            f"probes={self.probes!r}",
            f"obs={self.obs_level}",
            f"tag={self.cache_tag}",
        )
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class JobRecord:
    """Everything one executed :class:`SimJob` produced.

    A record either succeeded (``result`` set, ``error`` empty) or failed
    (``result is None``, ``error`` holds the reason).  Failed records are
    produced by :class:`SweepRunner`, so one bad job cannot abort a batch;
    they are never memoised or persisted, so a transient failure is
    retried on the next submission.
    """

    job_key: str
    result: Optional[SimulationResult]
    phase_log: List[Tuple[Tuple[int, ...], Dict[int, int]]] = field(
        default_factory=list
    )
    probes: Dict[str, Any] = field(default_factory=dict)
    from_cache: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.result is not None


def failed_record(key: str, exc: BaseException) -> JobRecord:
    """A failure :class:`JobRecord` describing why a job produced no result."""
    return JobRecord(
        job_key=key, result=None, error=f"{type(exc).__name__}: {exc}"
    )


def execute_job(job: SimJob) -> JobRecord:
    """Run one job from scratch (no caching).  Process-pool worker."""
    profile = job.resolve_profile()
    design = job.resolve_design(profile)
    workload = build_workload(profile, job.seed)
    simulator = HybridSimulator(
        design,
        workload,
        mode=job.mode,
        powerchop_config=job.resolve_config(),
        timeout_cycles=job.timeout_cycles,
        obs_level=job.obs_level,
        backend=job.backend,
    )
    if job.configure is not None:
        job.configure(simulator)
    probe_states = tuple(spec.build() for spec in job.probes)
    result = simulator.run(job.max_instructions, probes=probe_states)
    phase_log = (
        list(simulator.controller.phase_log) if simulator.controller else []
    )
    return JobRecord(
        job_key=job.key(),
        result=result,
        phase_log=phase_log,
        probes={state.name: state.value() for state in probe_states},
    )


# ------------------------------------------------------------------ cache


def _default_budget() -> int:
    """Size budget in bytes from ``REPRO_CACHE_BUDGET`` (0 = unbounded)."""
    raw = os.environ.get("REPRO_CACHE_BUDGET", "0")
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ValueError("REPRO_CACHE_BUDGET must be an integer byte count") from exc
    if budget < 0:
        raise ValueError("REPRO_CACHE_BUDGET must be >= 0")
    return budget


class ResultCache:
    """Persistent on-disk JSON cache of :class:`JobRecord`, one file per key.

    The directory comes from ``REPRO_CACHE_DIR`` (default
    ``~/.cache/repro-powerchop``); ``REPRO_CACHE=0`` disables reads and
    writes.  Entries are invalidated implicitly: a fingerprint of the
    package's sources salts the job hash, and any config change alters
    the key.  Corrupt or unreadable entries, and entries whose ``schema``
    is not ``CACHE_SCHEMA_VERSION``, are treated as misses.

    Lifecycle: ``budget_bytes`` (default ``REPRO_CACHE_BUDGET``; 0 =
    unbounded) caps the total on-disk size.  Every ``put`` evicts
    least-recently-used entries (by file mtime — ``get`` hits touch their
    entry) until the cache fits the budget, so the cache never exceeds it.
    ``hits`` / ``misses`` / ``evictions`` count this instance's observed
    operations.  ``clock`` injects a deterministic time source for tests;
    the default is the filesystem's own clock.
    """

    def __init__(
        self,
        root: Optional[Path] = None,
        enabled: Optional[bool] = None,
        budget_bytes: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if root is None:
            root = Path(
                os.environ.get(
                    "REPRO_CACHE_DIR",
                    os.path.join(os.path.expanduser("~"), ".cache", "repro-powerchop"),
                )
            )
        self.root = Path(root)
        if enabled is None:
            enabled = os.environ.get("REPRO_CACHE", "1") != "0"
        self.enabled = enabled
        self.budget_bytes = _default_budget() if budget_bytes is None else budget_bytes
        if self.budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.clock = clock
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _touch(self, path: Path) -> None:
        """Mark ``path`` most-recently-used (mtime = now / injected clock)."""
        try:
            if self.clock is None:
                os.utime(path)
            else:
                stamp = self.clock()
                os.utime(path, (stamp, stamp))
        except OSError:
            pass  # entry raced away; the next get is simply a miss

    def get(self, key: str) -> Optional[JobRecord]:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path) as handle:
                data = json.load(handle)
            if data.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError("stale cache schema")
            record = JobRecord(
                job_key=key,
                result=SimulationResult.from_dict(data["result"]),
                phase_log=[
                    (tuple(signature), {int(tid): count for tid, count in vector.items()})
                    for signature, vector in data["phase_log"]
                ],
                probes=data.get("probes", {}),
                from_cache=True,
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return record

    def put(self, key: str, record: JobRecord) -> None:
        if not self.enabled or record.result is None:
            return
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "version": _code_fingerprint(),
            "result": record.result.to_dict(),
            "phase_log": [
                [list(signature), vector] for signature, vector in record.phase_log
            ],
            "probes": record.probes,
        }
        try:
            text = json.dumps(payload)
        except TypeError:
            return  # non-JSON probe value; skip persistence, keep the memo
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self._path(key).with_suffix(".tmp%d" % os.getpid())
        try:
            tmp.write_text(text)
            os.replace(tmp, self._path(key))
        finally:
            # Entries are globbed as ``*.json``, so a temp file left by a
            # failed write would be invisible to the budget and to gc.
            tmp.unlink(missing_ok=True)
        self._touch(self._path(key))
        self.evict_to_budget()

    # ------------------------------------------------------- lifecycle

    def entries(self) -> List[Tuple[Path, float, int]]:
        """``(path, mtime, size)`` for every entry, coldest first."""
        rows = []
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                rows.append((path, stat.st_mtime, stat.st_size))
        rows.sort(key=lambda row: (row[1], row[0].name))
        return rows

    def total_bytes(self) -> int:
        return sum(size for _path, _mtime, size in self.entries())

    def evict_to_budget(self, budget_bytes: Optional[int] = None) -> int:
        """Unlink least-recently-used entries until the cache fits.

        Returns how many entries were evicted.  A budget of 0 means
        unbounded (nothing is ever evicted).
        """
        budget = self.budget_bytes if budget_bytes is None else budget_bytes
        if budget <= 0:
            return 0
        rows = self.entries()
        total = sum(size for _path, _mtime, size in rows)
        evicted = 0
        for path, _mtime, size in rows:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted

    def stats(self) -> Dict[str, Any]:
        """Lifecycle snapshot: occupancy, entry-age bounds and counters."""
        rows = self.entries()
        total = sum(size for _path, _mtime, size in rows)
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": len(rows),
            "bytes": total,
            "budget_bytes": self.budget_bytes,
            "over_budget": bool(self.budget_bytes and total > self.budget_bytes),
            "oldest_mtime": rows[0][1] if rows else None,
            "newest_mtime": rows[-1][1] if rows else None,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> int:
        """Delete all cache entries; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


#: Per-process memo: job key -> JobRecord.  Callers that hit the memo get
#: the *same* record object back, which the experiment layer relies on.
_MEMO: Dict[str, JobRecord] = {}


def clear_memo() -> None:
    """Drop the per-process memo (the on-disk cache is unaffected)."""
    _MEMO.clear()


def run_job(job: SimJob, cache: Optional[ResultCache] = None) -> JobRecord:
    """Run one job through the memo and on-disk cache layers."""
    key = job.key()
    record = _MEMO.get(key)
    if record is not None:
        # Same result/phase_log objects as the memoised record; only the
        # from_cache flag differs, so callers can see the hit.
        return replace(record, from_cache=True)
    if cache is None:
        cache = ResultCache()
    record = cache.get(key)
    if record is None:
        record = execute_job(job)
        cache.put(key, record)
    _MEMO[key] = record
    return record


# ------------------------------------------------------------------ sweep


def default_workers() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    try:
        workers = int(os.environ.get("REPRO_JOBS", "1"))
    except ValueError as exc:
        raise ValueError("REPRO_JOBS must be an integer") from exc
    if workers < 1:
        raise ValueError("REPRO_JOBS must be >= 1")
    return workers


def _is_picklable(job: SimJob) -> bool:
    try:
        pickle.dumps(job)
        return True
    except Exception:
        return False


def _execute_isolated(items: List[Tuple[str, SimJob]]) -> Dict[str, JobRecord]:
    """Re-run jobs one at a time in disposable single-worker pools.

    Recovery path after a :class:`BrokenProcessPool`: the broken pool
    cannot say *which* job killed the worker, so every job whose future it
    poisoned comes through here.  Each job gets a fresh worker; a job that
    crashes it again is the culprit and becomes a failed record, while the
    innocent bystanders complete normally on the next pool.
    """
    out: Dict[str, JobRecord] = {}
    index = 0
    while index < len(items):
        with ProcessPoolExecutor(max_workers=1) as pool:
            while index < len(items):
                key, job = items[index]
                index += 1
                try:
                    out[key] = pool.submit(execute_job, job).result()
                except BrokenProcessPool as exc:
                    out[key] = failed_record(key, exc)
                    break  # this pool is dead; next job gets a fresh one
                except Exception as exc:
                    out[key] = failed_record(key, exc)
    return out


class SweepRunner:
    """Execute batches of :class:`SimJob` with caching and parallelism.

    Results are returned in job order regardless of completion order, and
    are bit-identical between the serial and process-pool paths (workload
    generation is seeded, simulation is deterministic).  Duplicate jobs
    within one batch execute once and share a record.  Jobs that cannot be
    pickled (e.g. closure ``configure`` callbacks) fall back to in-process
    execution automatically.

    Failures are isolated per job: a job that raises, returns an
    unpicklable result, or hard-crashes its worker yields a failed
    :class:`JobRecord` (``result=None``, ``error`` set) while the rest of
    the batch completes.  There are no retries; failed records are not
    cached, so resubmitting a batch re-runs only its failures.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.workers = default_workers() if workers is None else workers
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = cache if cache is not None else ResultCache()

    def run(self, jobs: Sequence[SimJob]) -> List[JobRecord]:
        jobs = list(jobs)
        records: List[Optional[JobRecord]] = [None] * len(jobs)

        # Cache pass; collect unique missing keys in first-seen order.
        pending: Dict[str, SimJob] = {}
        slots: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            key = job.key()
            memoised = _MEMO.get(key)
            if memoised is not None:
                records[index] = replace(memoised, from_cache=True)
                continue
            record = self.cache.get(key)
            if record is not None:
                _MEMO[key] = record
                records[index] = record
            else:
                pending.setdefault(key, job)
                slots.setdefault(key, []).append(index)

        fresh: Dict[str, JobRecord] = {}
        parallel = [
            (key, job)
            for key, job in pending.items()
            if self.workers > 1 and _is_picklable(job)
        ]
        parallel_keys = {key for key, _job in parallel}
        serial = [
            (key, job) for key, job in pending.items() if key not in parallel_keys
        ]

        if len(parallel) > 1:
            max_workers = min(self.workers, len(parallel))
            broken: List[Tuple[str, SimJob]] = []
            job_by_key = dict(parallel)
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = {
                    pool.submit(execute_job, job): key for key, job in parallel
                }
                for future in as_completed(futures):
                    key = futures[future]
                    try:
                        fresh[key] = future.result()
                    except BrokenProcessPool:
                        # One worker died and poisoned every in-flight
                        # future; the casualties are re-run in isolation
                        # below so only the culprit job fails.
                        broken.append((key, job_by_key[key]))
                    except Exception as exc:
                        fresh[key] = failed_record(key, exc)
            if broken:
                fresh.update(_execute_isolated(broken))
        else:
            serial = parallel + serial

        for key, job in serial:
            try:
                fresh[key] = execute_job(job)
            except Exception as exc:
                fresh[key] = failed_record(key, exc)

        for key, record in fresh.items():
            if record.ok:
                self.cache.put(key, record)
                _MEMO[key] = record
            for index in slots[key]:
                records[index] = record

        return records  # type: ignore[return-value]


def run_jobs(
    jobs: Sequence[SimJob],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[JobRecord]:
    """Convenience wrapper: one-shot :class:`SweepRunner` run."""
    return SweepRunner(workers=workers, cache=cache).run(jobs)
