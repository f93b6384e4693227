"""Backend registry + three-way bit-equivalence: reference / fastpath / vectorized.

Every registered execution backend promises *exact* equivalence with the
reference loop — every :class:`SimulationResult` field, every ``extra``
entry, and the deep component state (cache set contents, predictor
tables, prefetcher streams, RNG-visible history).  Tier-1 proves the
three-way match on five profiles across all four gating modes; the
exhaustive 29-profile sweep lives behind the slow marker.
"""

import dataclasses
import time

import pytest

from repro.core.config import PowerChopConfig
from repro.isa.branches import LoopBranch, StaticBranch
from repro.isa.instructions import InstructionMix
from repro.isa.blocks import BasicBlock, CodeRegion
from repro.sim.backends import (
    DEFAULT_BACKEND,
    available_backends,
    get_backend,
    resolve_backend_name,
)
from repro.sim.backends import vectorized
from repro.sim.backends.vectorized import _walk_table
from repro.sim.engine import NON_KEY_FIELDS, SimJob
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.uarch.config import design_for_suite
from repro.workloads.generator import MemoryBehavior, PhaseSpec, SyntheticWorkload
from repro.workloads.profiles import build_workload
from repro.workloads.suites import ALL_BENCHMARKS, get_profile

#: Same sampling as tests/test_fastpath.py: one profile per suite family,
#: exercising distinct unit behaviours.  Two mobilebench entries with
#: ``random_frac > 0`` (google 0.25, amazon 0.2) prove the RNG-planned
#: batch path — these streams previously took a per-access fallback.
SAMPLED_PROFILES = ("bzip2", "milc", "blackscholes", "google", "amazon", "libquantum")

_QUICK = PowerChopConfig(window_size=100, warmup_windows=1)

ALL_MODES = (
    GatingMode.FULL,
    GatingMode.MINIMAL,
    GatingMode.POWERCHOP,
    GatingMode.TIMEOUT,
)


def _run(name, mode, backend, seed=7, max_instructions=120_000):
    profile = get_profile(name)
    simulator = HybridSimulator(
        design_for_suite(profile.suite),
        build_workload(profile, seed),
        mode,
        powerchop_config=_QUICK if mode is GatingMode.POWERCHOP else None,
        backend=backend,
    )
    result = simulator.run(max_instructions)
    return simulator, result


def _deep_state(simulator):
    """Component state a result dict can't see; must still match exactly."""
    core = simulator.core
    h = core.hierarchy
    bpu = core.bpu
    state = {
        "l1_sets": h.l1._sets,
        "mlc_sets": h.mlc._sets,
        "llc_sets": h.llc._sets if h.llc is not None else None,
        "levels": list(h.level_counts),
        "local_hist": list(bpu.large.local._histories),
        "local_ctr": list(bpu.large.local._counters),
        "gshare_ctr": list(bpu.large.global_pred._counters),
        "gshare_ghr": bpu.large.global_pred.ghr,
        "chooser": list(bpu.large._chooser),
        "small_hist": list(bpu.small._histories),
        "small_ctr": list(bpu.small._counters),
        "btb": list(bpu.large_btb._entries),
        "history_bits": simulator.workload.history.bits,
        "counters": core.counters.snapshot(),
        "vpu": (core.vpu.native_ops, core.vpu.emulated_ops),
    }
    if h.prefetcher is not None:
        state["prefetcher"] = (
            list(h.prefetcher._streams),
            list(h.prefetcher._stamps),
            h.prefetcher._clock,
        )
    return state


def _assert_identical(name, mode, max_instructions=120_000):
    ref_sim, ref = _run(name, mode, "reference", max_instructions=max_instructions)
    ref_dict = ref.to_dict()
    ref_state = _deep_state(ref_sim)
    for backend in ("fastpath", "vectorized"):
        sim, result = _run(name, mode, backend, max_instructions=max_instructions)
        assert result.to_dict() == ref_dict, (
            f"{name}/{mode.value}/{backend} result diverged"
        )
        assert _deep_state(sim) == ref_state, (
            f"{name}/{mode.value}/{backend} component state diverged"
        )


# ------------------------------------------------------------ tier-1 matrix


@pytest.mark.parametrize("profile_name", SAMPLED_PROFILES)
@pytest.mark.parametrize("mode", ALL_MODES)
def test_backends_bit_identical(profile_name, mode):
    _assert_identical(profile_name, mode)


# --------------------------------------------------------- exhaustive sweep


@pytest.mark.slow
@pytest.mark.parametrize("profile_name", [p.name for p in ALL_BENCHMARKS])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_backends_bit_identical_all_profiles(profile_name, mode):
    _assert_identical(profile_name, mode, max_instructions=200_000)


# ----------------------------------------------------------------- registry


def test_registry_lists_all_backends():
    assert available_backends() == ("reference", "fastpath", "vectorized")


@pytest.mark.parametrize("name", ["reference", "fastpath", "vectorized"])
def test_get_backend_roundtrip(name):
    backend = get_backend(name)
    assert backend.name == name
    # Instances are memoized: the registry hands back the same object.
    assert get_backend(name) is backend


def test_get_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("warp-drive")


def test_resolve_backend_name():
    assert resolve_backend_name(None) == DEFAULT_BACKEND
    assert resolve_backend_name("vectorized") == "vectorized"
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend_name("warp-drive")


def test_simulator_exposes_backend():
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="vectorized"
    )
    assert sim.backend_name == "vectorized"
    assert sim.backend is get_backend("vectorized")
    assert sim.fastpath_state is not None  # vectorized needs replay state


def test_simulator_reference_backend_has_no_replay_state():
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="reference"
    )
    assert sim.fastpath_state is None
    assert sim.core.fastpath_listener is None
    sim.run(10_000)  # runs the reference loop without error


# ----------------------------------------------------------- engine caching


def test_simjob_backend_excluded_from_cache_key():
    """Backends are bit-identical, so they may share cache entries."""
    keys = {
        SimJob(benchmark="bzip2", backend=backend).key()
        for backend in (None, "reference", "fastpath", "vectorized")
    }
    assert len(keys) == 1


def test_simjob_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        SimJob(benchmark="bzip2", backend="warp-drive")


def test_non_key_fields_split_is_exhaustive():
    """Every SimJob field is either hashed by key() or in NON_KEY_FIELDS."""
    key_fields = {
        "benchmark",
        "profile",
        "design",
        "mode",
        "powerchop_config",
        "managed_units",
        "timeout_cycles",
        "max_instructions",
        "seed",
        "collect_phase_log",
        "probes",
        "obs_level",
        "cache_tag",
    }
    all_fields = {field.name for field in dataclasses.fields(SimJob)}
    assert all_fields == key_fields | NON_KEY_FIELDS
    assert not key_fields & NON_KEY_FIELDS


def test_key_fields_actually_vary_the_key():
    base = SimJob(benchmark="bzip2")
    assert base.key() != SimJob(benchmark="bzip2", seed=1).key()
    assert base.key() != SimJob(benchmark="bzip2", max_instructions=2).key()
    assert base.key() != SimJob(benchmark="bzip2", mode=GatingMode.MINIMAL).key()


# ------------------------------------------------- vectorized burst replay


def _single_phase_workload(random_frac, segment_blocks=64):
    mix = InstructionMix(scalar=5, vector=0, loads=3, stores=1, has_branch=True)
    blocks = []
    for i in range(4):
        pc = 0x1000 + i * 0x40
        branch = StaticBranch(pc=pc + (mix.total - 1) * 4, model=LoopBranch(16))
        blocks.append(
            BasicBlock(pc, mix, branch, taken_succ=(i + 1) % 4, fall_succ=(i + 1) % 4)
        )
    region = CodeRegion(0, blocks)
    behavior = MemoryBehavior(
        working_set_kb=1.0, pattern="loop", stride=8, random_frac=random_frac
    )
    phase = PhaseSpec("only", region, behavior)
    return SyntheticWorkload(
        "unit", "spec", [phase], [("only", segment_blocks)], seed=3
    )


def test_vectorized_records_bursts_on_deterministic_streams():
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.FULL, backend="vectorized"
    )
    sim.run(50_000)
    state = sim.fastpath_state
    assert state.bursts_recorded > 0
    assert state.blocks_vectorized > 0


def test_vectorized_batches_random_streams():
    """random_frac > 0 batches through the bulk RNG plan — no fallback."""
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.3), GatingMode.FULL, backend="vectorized"
    )
    sim.run(50_000)
    state = sim.fastpath_state
    assert state.bursts_recorded > 0
    assert state.blocks_vectorized > 0


def test_vectorized_idle_windows_extend_bursts():
    """Policy-idle window boundaries must not flush the burst.

    A long single-phase segment under POWERCHOP settles into a stable
    policy quickly; once the PVT holds a matching policy every boundary is
    idle, so the burst replays across many windows and the flush count
    stays far below the window count.
    """
    design = design_for_suite("spec")
    wl = _single_phase_workload(0.0, segment_blocks=5000)
    sim = HybridSimulator(
        design,
        wl,
        GatingMode.POWERCHOP,
        powerchop_config=_QUICK,
        backend="vectorized",
    )
    result = sim.run(50_000)
    state = sim.fastpath_state
    assert result.windows > 10
    assert state.bursts_recorded < result.windows / 2


# ------------------------------------------------- burst cap (chunked pass B)

#: Modes the burst cap can reach (TIMEOUT delegates to fastpath).
BURST_MODES = (GatingMode.FULL, GatingMode.POWERCHOP, GatingMode.MINIMAL)

#: Cap -> instruction budget.  Tiny caps flush every few blocks, so they
#: run at smaller budgets to keep the tier-1 matrix cheap; each run still
#: crosses from ~20 (cap 257) to ~1000 (cap 1) chunk boundaries.
CAP_BUDGETS = {1: 10_000, 7: 30_000, 257: 60_000}


def _assert_capped_identical(monkeypatch, name, caps):
    for cap in caps:
        budget = CAP_BUDGETS[cap]
        for mode in BURST_MODES:
            ref_sim, ref = _run(name, mode, "reference", max_instructions=budget)
            monkeypatch.setattr(vectorized, "_BURST_BLOCKS", cap)
            sim, result = _run(name, mode, "vectorized", max_instructions=budget)
            assert result.to_dict() == ref.to_dict(), (
                f"{name}/{mode.value}/cap {cap} result diverged"
            )
            assert _deep_state(sim) == _deep_state(ref_sim), (
                f"{name}/{mode.value}/cap {cap} component state diverged"
            )


@pytest.mark.parametrize("profile_name", SAMPLED_PROFILES)
def test_burst_cap_is_exact(monkeypatch, profile_name):
    """Chunk flushes at any block boundary leave results bit-identical."""
    _assert_capped_identical(monkeypatch, profile_name, sorted(CAP_BUDGETS))


@pytest.mark.slow
@pytest.mark.parametrize("profile_name", [p.name for p in ALL_BENCHMARKS])
def test_burst_cap_is_exact_all_profiles(monkeypatch, profile_name):
    _assert_capped_identical(monkeypatch, profile_name, sorted(CAP_BUDGETS))


@pytest.mark.parametrize("cap", [1, 64, 299, 999])
def test_burst_cap_bounds_every_flush(monkeypatch, cap):
    """FULL mode has no window boundaries, so bursts split only at segment
    ends and at the cap: ceil(segment length / cap) flushes per segment."""
    segment = 300
    blocks = 7 * segment + 1  # seven whole segments plus one block
    wl = _single_phase_workload(0.0, segment_blocks=segment)
    n_instr = wl.phases["only"].region.blocks[0].n_instr
    monkeypatch.setattr(vectorized, "_BURST_BLOCKS", cap)
    sim = HybridSimulator(
        design_for_suite("spec"), wl, GatingMode.FULL, backend="vectorized"
    )
    sim.run((blocks - 1) * n_instr + 1)
    full, rest = divmod(blocks, segment)
    expected = full * -(-segment // cap) + -(-rest // cap)
    state = sim.fastpath_state
    assert state.blocks_vectorized == blocks
    assert state.bursts_recorded == expected


def test_vectorized_times_each_pass_directly():
    """Pass A, pass B and scalar are measured intervals, not a residual."""
    profile = get_profile("bzip2")
    sim = HybridSimulator(
        design_for_suite(profile.suite),
        build_workload(profile, 7),
        GatingMode.POWERCHOP,
        powerchop_config=_QUICK,
        backend="vectorized",
    )
    start = time.perf_counter()
    sim.run(120_000)
    wall = time.perf_counter() - start
    state = sim.fastpath_state
    parts = (state.pass_a_seconds, state.pass_b_seconds, state.scalar_seconds)
    assert all(part > 0.0 for part in parts)
    assert sum(parts) <= wall


def test_vectorized_timeout_mode_delegates_to_fastpath():
    """TIMEOUT gates the VPU per block — inherently scalar, so no bursts."""
    design = design_for_suite("spec")
    sim = HybridSimulator(
        design, _single_phase_workload(0.0), GatingMode.TIMEOUT, backend="vectorized"
    )
    sim.run(50_000)
    assert sim.fastpath_state.bursts_recorded == 0


def test_vectorized_probe_runs_delegate_to_reference():
    from repro.sim.probes import IPCSeriesProbe

    ref_sim, ref = _run("bzip2", GatingMode.POWERCHOP, "reference")
    profile = get_profile("bzip2")
    sim = HybridSimulator(
        design_for_suite(profile.suite),
        build_workload(profile, 7),
        GatingMode.POWERCHOP,
        powerchop_config=_QUICK,
        backend="vectorized",
    )
    probe = IPCSeriesProbe(sample_instructions=20_000).build()
    result = sim.run(120_000, probes=(probe,))
    assert result.to_dict() == ref.to_dict()
    assert sim.fastpath_state.bursts_recorded == 0  # reference loop ran
    assert probe.value()  # and delivered the per-block callbacks


def test_walk_table_is_memoized_per_region():
    wl = _single_phase_workload(0.0)
    region = wl.phases["only"].region
    table = _walk_table(region)
    assert _walk_table(region) is table
    branches, aux = table
    assert branches == [block.branch for block in region.blocks]
    assert [s[1] for s in aux.steps] == [block.pc for block in region.blocks]
    assert [s[2] for s in aux.steps] == [block.n_instr for block in region.blocks]


def test_attr_arrays_memoized_and_match_blocks():
    wl = _single_phase_workload(0.0)
    region = wl.phases["only"].region
    arrays = region.attr_arrays()
    assert region.attr_arrays() is arrays
    n_instr, n_mem, n_loads, n_vec = arrays
    assert n_instr.tolist() == [block.n_instr for block in region.blocks]
    assert n_mem.tolist() == [block.n_mem for block in region.blocks]
    assert n_loads.tolist() == [block.n_loads for block in region.blocks]
    assert n_vec.tolist() == [block.n_vec for block in region.blocks]
