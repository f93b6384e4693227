"""Remaining-path coverage: seeds, phase streams, memory-behaviour edges."""

from repro.sim.simulator import GatingMode, run_simulation
from repro.uarch.config import SERVER
from repro.workloads.generator import MemoryBehavior
from repro.workloads.profiles import build_workload


class TestSeedOverrides:
    def test_run_simulation_seed_changes_trace(self, tiny_profile):
        a = run_simulation(
            SERVER, tiny_profile, GatingMode.FULL, 50_000, seed=1
        )
        b = run_simulation(
            SERVER, tiny_profile, GatingMode.FULL, 50_000, seed=2
        )
        assert a.cycles != b.cycles

    def test_same_seed_same_cycles(self, tiny_profile):
        a = run_simulation(SERVER, tiny_profile, GatingMode.FULL, 50_000, seed=5)
        b = run_simulation(SERVER, tiny_profile, GatingMode.FULL, 50_000, seed=5)
        assert a.cycles == b.cycles


class TestPhaseStreams:
    def test_address_stream_persists_across_recurrences(self, tiny_profile):
        workload = build_workload(tiny_profile)
        phase = next(iter(workload.phases.values()))
        stream_a = phase.address_stream(0, 1)
        stream_b = phase.address_stream(0, 1)
        assert stream_a is stream_b  # reuse, not regeneration

    def test_distinct_phases_distinct_bases(self, tiny_profile):
        workload = build_workload(tiny_profile)
        phases = list(workload.phases.values())
        s0 = phases[0].address_stream(0, 1)
        s1 = phases[1].address_stream(1, 1)
        assert s0.base != s1.base


class TestMemoryBehaviorEdge:
    def test_tiny_working_set_clamped_to_stride(self):
        from repro.workloads.generator import AddressStream

        behavior = MemoryBehavior(working_set_kb=0.001, pattern="loop", stride=64)
        stream = AddressStream(behavior, base=0)
        addrs = stream.take(10)
        assert all(a == 0 for a in addrs)  # single-line working set

    def test_stream_wraps_at_private_limit(self):
        from repro.workloads.generator import AddressStream

        behavior = MemoryBehavior(working_set_kb=1, pattern="stream", stride=1 << 20)
        stream = AddressStream(behavior, base=0)
        addrs = stream.take(2000)
        assert max(addrs) < 1 << 30  # stays in the phase's address slot
