"""Tests for the unified simulation engine (jobs, probes, cache, sweeps)."""

import json
import os
import random
import time

import pytest

from repro.bt.runtime import ExecMode
from repro.core.config import PowerChopConfig
from repro.core.criticality import CriticalityThresholds
from repro.sim import engine
from repro.sim.engine import (
    ResultCache,
    SimJob,
    SweepRunner,
    execute_job,
    run_job,
)
from repro.sim.probes import IPCSeriesProbe
from repro.sim.results import SimulationResult
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import MOBILE, SERVER, design_for_suite
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile
from tests.conftest import UnpicklableProbe


@pytest.fixture(autouse=True)
def fresh_engine(monkeypatch, tmp_path):
    """Each test gets an empty memo and its own disk-cache directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_BUDGET", raising=False)
    engine.clear_memo()
    yield
    engine.clear_memo()


def _six_jobs(budget=60_000):
    """A small mixed sweep: three modes on one server and one mobile app."""
    jobs = []
    for name in ("hmmer", "msn"):
        for mode in (GatingMode.FULL, GatingMode.POWERCHOP, GatingMode.MINIMAL):
            jobs.append(SimJob(benchmark=name, mode=mode, max_instructions=budget))
    return jobs


def _job(seed=None, budget=30_000, benchmark="hmmer", mode=GatingMode.FULL):
    return SimJob(
        benchmark=benchmark, mode=mode, max_instructions=budget, seed=seed
    )


@pytest.fixture(scope="module")
def template_record():
    """One real successful record to persist under synthetic keys."""
    return execute_job(SimJob(benchmark="hmmer", max_instructions=20_000))


class _Clock:
    """Deterministic strictly-increasing mtime source."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSimJobValidation:
    def test_needs_benchmark_or_profile(self):
        with pytest.raises(ValueError):
            SimJob()

    def test_rejects_both_benchmark_and_profile(self):
        with pytest.raises(ValueError):
            SimJob(benchmark="hmmer", profile=get_profile("hmmer"))

    def test_rejects_bad_budget_and_units(self):
        with pytest.raises(ValueError):
            SimJob(benchmark="hmmer", max_instructions=0)
        with pytest.raises(ValueError):
            SimJob(benchmark="hmmer", managed_units=("vpu", "gpu"))

    def test_configure_requires_cache_tag(self):
        def tweak(simulator):
            simulator.core.apply_bpu_state(False)

        with pytest.raises(ValueError, match="cache_tag"):
            SimJob(benchmark="hmmer", configure=tweak)
        job = SimJob(benchmark="hmmer", configure=tweak, cache_tag="small-bpu")
        assert job.cache_tag == "small-bpu"

    def test_key_is_stable_and_content_sensitive(self):
        a = SimJob(benchmark="hmmer", max_instructions=50_000)
        b = SimJob(benchmark="hmmer", max_instructions=50_000)
        assert a.key() == b.key()
        assert a.key() != SimJob(benchmark="hmmer", max_instructions=50_001).key()
        assert a.key() != SimJob(benchmark="namd", max_instructions=50_000).key()
        assert (
            a.key()
            != SimJob(
                benchmark="hmmer", max_instructions=50_000, mode=GatingMode.POWERCHOP
            ).key()
        )

    def test_key_distinguishes_configs(self):
        base = SimJob(benchmark="hmmer", mode=GatingMode.POWERCHOP)
        tuned = SimJob(
            benchmark="hmmer",
            mode=GatingMode.POWERCHOP,
            powerchop_config=PowerChopConfig(
                thresholds=CriticalityThresholds(vpu=0.05)
            ),
        )
        assert base.key() != tuned.key()

    def test_inline_profile_resolves_design(self, tiny_profile):
        job = SimJob(profile=tiny_profile, max_instructions=10_000)
        assert job.resolve_profile() is tiny_profile
        assert job.resolve_design() is design_for_suite("test")


class TestResultSerialization:
    def test_round_trip(self):
        record = execute_job(
            SimJob(
                benchmark="hmmer", mode=GatingMode.POWERCHOP, max_instructions=80_000
            )
        )
        data = record.result.to_dict()
        rebuilt = SimulationResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == record.result
        assert rebuilt.ipc == record.result.ipc
        assert rebuilt.energy.avg_power_w == record.result.energy.avg_power_w
        assert data["derived"]["ipc"] == record.result.ipc


class TestResultCache:
    def test_miss_then_hit_round_trips(self):
        job = SimJob(
            benchmark="hmmer",
            mode=GatingMode.POWERCHOP,
            max_instructions=80_000,
            collect_phase_log=True,
        )
        cache = ResultCache()
        assert cache.get(job.key()) is None
        record = run_job(job, cache=cache)
        assert not record.from_cache
        engine.clear_memo()
        again = run_job(job, cache=ResultCache())
        assert again.from_cache
        assert again.result == record.result
        # Phase log survives the JSON round trip with exact types.
        assert again.phase_log == record.phase_log
        assert again.phase_log, "PowerChop jobs collect phase vectors"
        signature, vector = again.phase_log[0]
        assert isinstance(signature, tuple)
        assert all(isinstance(tid, int) for tid in vector)

    def test_config_change_invalidates(self):
        cache = ResultCache()
        base = SimJob(benchmark="hmmer", mode=GatingMode.POWERCHOP, max_instructions=60_000)
        run_job(base, cache=cache)
        engine.clear_memo()
        tuned = SimJob(
            benchmark="hmmer",
            mode=GatingMode.POWERCHOP,
            max_instructions=60_000,
            powerchop_config=PowerChopConfig(window_size=500),
        )
        assert cache.get(tuned.key()) is None

    def test_code_change_invalidates(self, monkeypatch):
        # The key is salted with a fingerprint of the package's sources:
        # a result cached by other code must never be replayed.
        job = SimJob(benchmark="hmmer", max_instructions=60_000)
        run_job(job, cache=ResultCache())
        engine.clear_memo()
        assert ResultCache().get(job.key()) is not None
        real = engine._code_fingerprint()
        monkeypatch.setattr(engine, "_code_fingerprint", lambda: "edited" + real)
        assert ResultCache().get(job.key()) is None
        monkeypatch.setattr(engine, "_code_fingerprint", lambda: real)
        assert ResultCache().get(job.key()) is not None

    def test_corrupt_entry_is_a_miss(self):
        job = SimJob(benchmark="hmmer", max_instructions=60_000)
        cache = ResultCache()
        run_job(job, cache=cache)
        path = cache.root / f"{job.key()}.json"
        valid = json.loads(path.read_text())
        path.write_text("{not json")
        engine.clear_memo()
        assert ResultCache().get(job.key()) is None
        path.write_text("[]")  # valid JSON, not an entry
        assert ResultCache().get(job.key()) is None
        path.write_text(
            json.dumps({**valid, "schema": engine.CACHE_SCHEMA_VERSION - 1})
        )
        assert ResultCache().get(job.key()) is None
        path.write_text(json.dumps(valid))
        assert ResultCache().get(job.key()) is not None

    def test_failed_write_leaves_no_temp_file(self, monkeypatch, template_record):
        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        cache = ResultCache()
        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError, match="No space left"):
            cache.put("doomed", template_record)
        assert list(cache.root.glob("*.tmp*")) == []
        assert cache.entries() == []

    def test_disable_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        job = SimJob(benchmark="hmmer", max_instructions=60_000)
        cache = ResultCache()
        assert not cache.enabled
        run_job(job, cache=cache)
        assert not cache.root.is_dir() or not list(cache.root.glob("*.json"))

    def test_clear(self):
        cache = ResultCache()
        run_job(SimJob(benchmark="hmmer", max_instructions=60_000), cache=cache)
        assert cache.clear() == 1
        assert cache.clear() == 0


class TestCacheLifecycle:
    def _cache(self, tmp_path, budget_entries, entry_size):
        return ResultCache(
            root=tmp_path / "lru",
            budget_bytes=budget_entries * entry_size,
            clock=_Clock(),
        )

    def _entry_size(self, tmp_path, record):
        probe = ResultCache(root=tmp_path / "probe")
        probe.put("size-probe", record)
        return probe.total_bytes()

    def test_lru_never_evicts_just_hit_key_before_colder(
        self, tmp_path, template_record
    ):
        size = self._entry_size(tmp_path, template_record)
        cache = self._cache(tmp_path, 3, size)
        for key in ("k1", "k2", "k3"):
            cache.put(key, template_record)
        assert cache.get("k1") is not None  # touch: k1 is now hottest
        cache.put("k4", template_record)  # over budget: k2 is coldest
        names = {path.name for path, _mtime, _size in cache.entries()}
        assert names == {"k1.json", "k3.json", "k4.json"}
        assert cache.evictions == 1
        assert cache.get("k2") is None  # evicted -> miss

    def test_budget_smaller_than_one_entry_still_holds(
        self, tmp_path, template_record
    ):
        size = self._entry_size(tmp_path, template_record)
        cache = ResultCache(
            root=tmp_path / "tiny", budget_bytes=size - 1, clock=_Clock()
        )
        cache.put("only", template_record)
        assert cache.total_bytes() <= size - 1  # invariant wins: evicted
        assert cache.entries() == []

    def test_zero_budget_means_unbounded(self, tmp_path, template_record):
        cache = ResultCache(root=tmp_path / "unbounded", budget_bytes=0)
        for index in range(8):
            cache.put(f"key{index}", template_record)
        assert len(cache.entries()) == 8
        assert cache.evictions == 0

    def test_budget_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "12345")
        assert ResultCache(root=tmp_path).budget_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "chonky")
        with pytest.raises(ValueError):
            ResultCache(root=tmp_path)

    def test_property_interleavings_respect_budget_lru_and_counters(
        self, tmp_path, template_record
    ):
        """Seeded random put/get interleavings against a model cache.

        Invariants after every operation: total bytes <= budget; the
        resident key set is exactly the model's LRU survivors (so no
        eviction ever picks a hotter key over a colder one); and the
        hit/miss/eviction counters equal the model's observed counts.
        """
        size = self._entry_size(tmp_path, template_record)
        budget_entries = 4
        cache = self._cache(tmp_path, budget_entries, size)
        rng = random.Random(1234)
        universe = [f"key{n}" for n in range(10)]
        model_lru: list = []  # coldest ... hottest
        hits = misses = evictions = 0

        for _step in range(300):
            key = rng.choice(universe)
            if rng.random() < 0.5:
                cache.put(key, template_record)
                if key in model_lru:
                    model_lru.remove(key)
                model_lru.append(key)
                while len(model_lru) > budget_entries:
                    model_lru.pop(0)
                    evictions += 1
            else:
                record = cache.get(key)
                if key in model_lru:
                    assert record is not None, f"model expected hit on {key}"
                    model_lru.remove(key)
                    model_lru.append(key)
                    hits += 1
                else:
                    assert record is None, f"model expected miss on {key}"
                    misses += 1
            assert cache.total_bytes() <= budget_entries * size
            resident = {path.name[: -len(".json")] for path, _m, _s in cache.entries()}
            assert resident == set(model_lru)
        assert (cache.hits, cache.misses, cache.evictions) == (
            hits,
            misses,
            evictions,
        ), "counters must reconcile with observed operations"
        assert evictions > 0 and hits > 0 and misses > 0  # the run was interesting


class TestCacheCommands:
    """``python -m repro cache status|gc`` over a populated cache."""

    def _populate(self, record, count=3):
        cache = ResultCache()
        for index in range(count):
            cache.put(f"entry{index}", record)
        return cache

    def _json(self, capsys, argv):
        from repro.__main__ import main

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_status_reports_occupancy(self, capsys, template_record):
        self._populate(template_record)
        stats = self._json(capsys, ["cache", "status", "--json"])
        assert stats["entries"] == 3
        assert stats["over_budget"] is False  # unbounded
        assert stats["oldest_mtime"] <= stats["newest_mtime"]

    def test_gc_evicts_to_budget(self, capsys, template_record):
        cache = self._populate(template_record)
        report = self._json(capsys, ["cache", "gc", "--budget", "1", "--json"])
        assert report["evicted"] == 3
        assert report["entries"] == 0 and report["budget_bytes"] == 1
        assert cache.entries() == []

    def test_gc_clear_empties_the_cache(self, capsys, template_record):
        cache = self._populate(template_record)
        report = self._json(capsys, ["cache", "gc", "--clear", "--json"])
        assert report["evicted"] == 3 and report["entries"] == 0
        assert cache.entries() == []


class TestSweepRunnerDeterminism:
    def test_parallel_matches_serial_bit_identical(self, monkeypatch, tmp_path):
        jobs = _six_jobs()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        engine.clear_memo()
        serial = SweepRunner(workers=1).run(jobs)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        monkeypatch.setenv("REPRO_JOBS", "4")
        engine.clear_memo()
        runner = SweepRunner()
        assert runner.workers == 4
        parallel = runner.run(jobs)

        assert [r.from_cache for r in parallel] == [False] * len(jobs)
        serial_dicts = [r.result.to_dict() for r in serial]
        parallel_dicts = [r.result.to_dict() for r in parallel]
        assert serial_dicts == parallel_dicts  # same order, same values
        assert [r.result.benchmark for r in parallel] == [j.benchmark for j in jobs]
        assert [r.result.mode for r in parallel] == [j.mode.value for j in jobs]

    def test_duplicate_jobs_share_one_record(self):
        job = SimJob(benchmark="hmmer", max_instructions=60_000)
        records = SweepRunner(workers=1).run([job, job, job])
        assert records[0] is records[1] is records[2]

    def test_unpicklable_jobs_fall_back_to_serial(self):
        def tweak(simulator):  # local closure: not picklable
            simulator.core.apply_bpu_state(False)

        jobs = [
            SimJob(
                benchmark="hmmer",
                max_instructions=60_000,
                configure=tweak,
                cache_tag="small-bpu",
            ),
            SimJob(benchmark="hmmer", max_instructions=60_000),
        ]
        records = SweepRunner(workers=4).run(jobs)
        assert len(records) == 2
        # The configured run really forced the small BPU: worse misprediction.
        assert (
            records[0].result.mispredict_rate >= records[1].result.mispredict_rate
        )

    def test_warm_disk_cache_is_10x_faster(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        jobs = _six_jobs(budget=250_000)

        engine.clear_memo()
        start = time.perf_counter()
        cold = SweepRunner(workers=1).run(jobs)
        cold_elapsed = time.perf_counter() - start

        engine.clear_memo()  # force the disk layer, not the memo
        start = time.perf_counter()
        warm = SweepRunner(workers=1).run(jobs)
        warm_elapsed = time.perf_counter() - start

        assert all(r.from_cache for r in warm)
        assert [r.result.to_dict() for r in warm] == [
            r.result.to_dict() for r in cold
        ]
        assert cold_elapsed >= 10 * warm_elapsed, (
            f"warm cache not >=10x faster: cold {cold_elapsed:.3f}s, "
            f"warm {warm_elapsed:.3f}s"
        )


class TestSweepRunnerFaultIsolation:
    def test_unpicklable_result_fails_one_job_not_the_batch(self):
        poisoned = SimJob(
            benchmark="hmmer",
            max_instructions=30_000,
            probes=(UnpicklableProbe(),),
        )
        jobs = [_job(seed=1), poisoned, _job(seed=2)]
        records = SweepRunner(workers=2).run(jobs)
        assert [r.ok for r in records] == [True, False, True]
        assert records[1].result is None
        assert records[1].error
        # The failure is not memoised or persisted: resubmitting retries it.
        assert poisoned.key() not in engine._MEMO
        assert ResultCache().get(poisoned.key()) is None

    def test_crashed_worker_fails_one_job_rest_complete(self, crashing_job):
        jobs = [_job(seed=1), crashing_job("crash"), _job(seed=2), _job(seed=3)]
        records = SweepRunner(workers=2).run(jobs)
        assert len(records) == len(jobs)
        assert [r.ok for r in records] == [True, False, True, True]
        assert "BrokenProcessPool" in records[1].error

    def test_raising_job_fails_serially_too(self, crashing_job):
        jobs = [crashing_job("raise"), _job(seed=4)]
        records = SweepRunner(workers=1).run(jobs)
        assert [r.ok for r in records] == [False, True]
        assert "RuntimeError: injected fault" in records[0].error


def _legacy_timeseries_ipc(design, profile, configure, max_instructions, sample):
    """The pre-engine hand-rolled loop from experiments.common (no tail)."""
    workload = build_workload(profile)
    simulator = HybridSimulator(design, workload, GatingMode.FULL)
    configure(simulator)
    core, bt = simulator.core, simulator.bt
    series = []
    cycles = 0.0
    last_cycles = 0.0
    last_instr = 0
    boundary = sample
    for block_exec in workload.trace(max_instructions):
        exec_mode, bt_cycles, _entered = bt.on_block(block_exec.block)
        cycles += bt_cycles
        cycles += core.execute_block(block_exec, exec_mode is ExecMode.INTERPRETED)
        instructions = core.counters.instructions
        if instructions >= boundary:
            delta_c = cycles - last_cycles
            delta_i = instructions - last_instr
            series.append(delta_i / delta_c if delta_c else 0.0)
            last_cycles, last_instr = cycles, instructions
            boundary += sample
    return series


class TestProbes:
    @pytest.mark.parametrize(
        "bench_name,design",
        [("gems", SERVER), ("msn", MOBILE)],
        ids=["server", "mobile"],
    )
    def test_ipc_probe_matches_legacy_loop(self, bench_name, design):
        from repro.experiments.common import timeseries_ipc

        profile = get_profile(bench_name)

        def keep_default(simulator):
            pass

        legacy = _legacy_timeseries_ipc(
            design, profile, keep_default, 400_000, 50_000
        )
        probed = timeseries_ipc(bench_name, 400_000, 50_000)
        assert legacy, "legacy loop produced samples"
        assert probed[: len(legacy)] == legacy  # bit-identical prefix
        assert len(probed) - len(legacy) <= 1  # plus at most the tail sample

    def test_ipc_probe_emits_trailing_half_window(self):
        profile = get_profile("hmmer")

        def keep_default(simulator):
            pass

        from repro.experiments.common import timeseries_ipc

        # ~130k instructions with 50k samples: boundaries at 50k and 100k,
        # plus a ~30k >= 25k trailing window the old loop silently dropped.
        legacy = _legacy_timeseries_ipc(
            SERVER, profile, keep_default, 130_000, 50_000
        )
        probed = timeseries_ipc("hmmer", 130_000, 50_000)
        assert len(legacy) == 2
        assert len(probed) == 3
        assert probed[:2] == legacy
        assert probed[2] > 0

    def test_probe_specs_in_job_and_cache(self):
        job = SimJob(
            benchmark="hmmer",
            mode=GatingMode.POWERCHOP,
            max_instructions=80_000,
            collect_phase_log=True,
            probes=(IPCSeriesProbe(sample_instructions=20_000),),
        )
        cache = ResultCache()
        record = run_job(job, cache=cache)
        assert len(record.probes["ipc_series"]) >= 3
        assert record.phase_log  # collect_phase_vectors enabled
        engine.clear_memo()
        warm = run_job(job, cache=ResultCache())
        assert warm.from_cache
        assert warm.probes["ipc_series"] == record.probes["ipc_series"]
        assert warm.phase_log == record.phase_log

    def test_timeseries_served_from_memo(self, monkeypatch):
        from repro.experiments import fig03_mlc_phases

        first = fig03_mlc_phases.ipc_series(max_instructions=200_000)

        def no_new_simulators(*args, **kwargs):
            raise AssertionError("memoised series built a simulator")

        monkeypatch.setattr(HybridSimulator, "__init__", no_new_simulators)
        second = fig03_mlc_phases.ipc_series(max_instructions=200_000)
        assert second == first
        assert all(first)  # both series are non-empty

    def test_probe_set_changes_job_key(self):
        plain = SimJob(benchmark="hmmer", max_instructions=50_000)
        probed = SimJob(
            benchmark="hmmer",
            max_instructions=50_000,
            probes=(IPCSeriesProbe(sample_instructions=10_000),),
        )
        assert plain.key() != probed.key()


class TestRunCachedShim:
    def test_configure_without_tag_raises(self):
        from repro.experiments.common import run_cached

        with pytest.raises(ValueError, match="cache_tag"):
            run_cached(
                "hmmer",
                GatingMode.FULL,
                configure=lambda simulator: None,
            )

    def test_workers_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ValueError):
            engine.default_workers()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            engine.default_workers()
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert engine.default_workers() == 3
