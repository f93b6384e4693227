"""End-of-run metrics collection from the authoritative counters.

The registry is populated once, at result-build time, straight from the
component counters the legacy ``SimulationResult`` fields are built from
— so registry totals are equal to the legacy counters *by construction*
(the A/B parity invariant tests assert it).  Collecting at the end keeps
the hot path free of incremental metric updates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import SimulationResult
    from repro.sim.simulator import HybridSimulator


def collect_metrics(
    simulator: "HybridSimulator",
    result: "SimulationResult",
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Fill ``registry`` from one finished simulation run."""
    registry = registry if registry is not None else MetricsRegistry()
    core = simulator.core
    counters = core.counters

    # Core execution.
    registry.counter("instructions").inc(counters.instructions)
    registry.counter("micro_ops").inc(counters.micro_ops)
    registry.counter("simd_instructions").inc(counters.simd_instructions)
    registry.counter("branches").inc(counters.branches)
    registry.counter("mispredicts").inc(counters.mispredicts)
    registry.counter("btb_redirects").inc(counters.btb_redirects)
    registry.counter("memory_ops").inc(counters.memory_ops)
    registry.gauge("cycles").set(result.cycles)

    # Cache hierarchy, labelled by level.
    hierarchy = core.hierarchy
    for label, cache in (("l1", hierarchy.l1), ("mlc", hierarchy.mlc)) + (
        (("llc", hierarchy.llc),) if hierarchy.llc is not None else ()
    ):
        registry.counter("cache_hits", cache=label).inc(cache.hits)
        registry.counter("cache_misses", cache=label).inc(cache.misses)
        registry.counter("cache_writebacks", cache=label).inc(cache.writebacks)
    registry.counter("cache_flushed_dirty", cache="mlc").inc(
        hierarchy.mlc.flushed_dirty
    )
    registry.counter("prefetch_covered").inc(hierarchy.prefetch_covered)

    # Vector unit.
    registry.counter("vpu_native_ops").inc(core.vpu.native_ops)
    registry.counter("vpu_emulated_ops").inc(core.vpu.emulated_ops)

    # BT runtime.
    bt = simulator.bt
    registry.counter("bt_interpreted_instructions").inc(
        bt.interpreter.interpreted_instructions
    )
    registry.counter("bt_translations_built").inc(bt.translator.translations_built)
    registry.counter("bt_translated_blocks").inc(bt.translated_blocks)
    registry.gauge("bt_translation_cycles").set(bt.translation_cycles)
    registry.gauge("nucleus_cycles").set(bt.nucleus.cycles)
    for kind, count in bt.nucleus.counts.items():
        registry.counter("nucleus_interrupts", kind=kind).inc(count)

    # PowerChop controller stack (POWERCHOP mode only).
    controller = simulator.controller
    if controller is not None:
        registry.counter("windows").inc(controller.windows_seen)
        registry.counter("translation_executions").inc(
            controller.translation_executions
        )
        registry.counter("htb_overflowed").inc(controller.htb.overflowed)
        registry.counter("htb_windows_completed").inc(
            controller.htb.windows_completed
        )
        pvt = controller.pvt
        registry.counter("pvt_lookups").inc(pvt.lookups)
        registry.counter("pvt_hits").inc(pvt.hits)
        registry.counter("pvt_misses").inc(pvt.misses)
        registry.counter("pvt_evictions").inc(pvt.evictions)
        cde = controller.cde
        registry.counter("cde_invocations").inc(cde.invocations)
        registry.counter("cde_new_phases").inc(cde.new_phases)
        registry.counter("cde_reregistrations").inc(cde.reregistrations)
        registry.counter("cde_profile_windows").inc(cde.profile_windows)
        registry.counter("cde_policies_assigned").inc(cde.policies_assigned)
        registry.counter("cde_inherited_policies").inc(cde.inherited_policies)
        registry.counter("cde_unprofileable_phases").inc(cde.unprofileable_phases)

    timeout = simulator.timeout_controller
    if timeout is not None:
        registry.counter("timeout_gate_offs").inc(timeout.gate_offs)
        registry.counter("timeout_gate_ons").inc(timeout.gate_ons)

    # Energy breakdown.
    energy = result.energy
    if energy is not None:
        registry.gauge("energy_leakage_j").set(energy.leakage_j)
        registry.gauge("energy_dynamic_j").set(energy.dynamic_j)
        registry.gauge("energy_switch_overhead_j").set(energy.switch_overhead_j)
        for unit, joules in energy.unit_leakage_j.items():
            registry.gauge("unit_leakage_j", unit=unit).set(joules)
        for unit, joules in energy.unit_dynamic_j.items():
            registry.gauge("unit_dynamic_j", unit=unit).set(joules)
        for unit, count in energy.switch_counts.items():
            registry.counter("unit_switches", unit=unit).inc(count)
        registry.gauge("vpu_on_frac").set(energy.vpu_on_frac)
        registry.gauge("bpu_on_frac").set(energy.bpu_on_frac)
        for ways, frac in energy.mlc_way_residency.items():
            registry.gauge("mlc_way_residency", ways=str(ways)).set(frac)

    # The tracer observing itself: buffer pressure and loss.
    tracer = simulator.tracer
    registry.counter("obs_events_emitted").inc(tracer.emitted)
    registry.counter("obs_events_dropped").inc(tracer.dropped)
    registry.gauge("obs_buffer_len").set(float(len(tracer)))

    return registry
