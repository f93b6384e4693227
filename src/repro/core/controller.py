"""The PowerChop controller: glues HTB, PVT and CDE into the simulator.

Runtime operation (paper §IV-A, Figure 4):

1. translation executions update the HTB, forming phase signatures;
2. at each 1000-translation window boundary the HTB initiates a PVT lookup;
3. a hit applies the stored gating decisions to the units;
4. a miss raises a nucleus interrupt into the CDE;
5. the CDE profiles new phases / re-registers evicted ones.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bt.region_cache import Translation
from repro.core.cde import CriticalityDecisionEngine, WindowStats
from repro.core.config import PowerChopConfig
from repro.core.htb import HotTranslationBuffer
from repro.core.policies import PolicyVector
from repro.core.pvt import PolicyVectorTable
from repro.core.signature import PhaseSignature
from repro.bt.nucleus import Nucleus
from repro.obs.events import EventKind
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.power.accounting import EnergyAccounting
from repro.uarch.config import DesignPoint
from repro.uarch.core import CoreModel


class PowerChopController:
    """Phase-triggered unit gating driven by translation execution."""

    def __init__(
        self,
        config: PowerChopConfig,
        design: DesignPoint,
        core: CoreModel,
        nucleus: Nucleus,
        accountant: Optional[EnergyAccounting] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.design = design
        self.core = core
        self.nucleus = nucleus
        self.accountant = accountant
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.htb = HotTranslationBuffer(
            config.htb_entries, config.window_size, tracer=self.tracer
        )
        self.pvt = PolicyVectorTable(config.pvt_entries, tracer=self.tracer)
        self.cde = CriticalityDecisionEngine(config, design, tracer=self.tracer)

        #: Signature of the phase the previous window observed (trace-only
        #: state backing the PhaseEnter/Exit events).
        self._last_phase: Optional[PhaseSignature] = None
        self._measuring: Optional[PhaseSignature] = None
        #: Set when arming a measurement window required upsizing the MLC or
        #: powering the large BPU back on: that window observes cold
        #: structures, so its counters would understate criticality.  The
        #: controller treats it as warmup and measures the window after it
        #: (Algorithm 1's "insufficient information, keep collecting").
        self._measure_warming = False
        self._bpu_mode_this_window = core.states.bpu_large_on
        self._snap_instructions = core.counters.instructions
        self._snap_simd = core.counters.simd_instructions
        self._snap_branches = core.counters.branches
        self._snap_mispredicts = core.counters.mispredicts
        self._snap_mlc_hits = core.hierarchy.mlc.hits
        self._snap_mlc_accesses = core.hierarchy.mlc.accesses
        self._mlc_full_this_window = core.states.mlc_ways == design.mlc_assoc

        #: (signature, translation execution vector) per window, for the
        #: Fig. 8 phase-quality analysis.  Populated only when configured.
        self.phase_log: List[Tuple[PhaseSignature, dict]] = []
        self.windows_seen = 0
        self.translation_executions = 0

        nucleus.register(
            "pvt_miss", self._handle_pvt_miss, config.cde_interrupt_cycles
        )

    # ------------------------------------------------------------ plumbing

    def on_translation_entry(self, translation: Translation, now_cycles: float) -> float:
        """HTB update on a translation-head execution (§IV-B2).

        Returns extra cycles consumed by window-boundary processing (gating
        transitions, CDE interrupts), zero in the common case.
        """
        self.translation_executions += 1
        if self.htb.record(translation.tid, translation.n_instr):
            return self._window_end(now_cycles)
        return 0.0

    def _window_stats(self) -> WindowStats:
        counters = self.core.counters
        mlc = self.core.hierarchy.mlc
        mlc_hits = mlc.hits
        mlc_accesses = mlc.accesses
        stats = WindowStats(
            instructions=counters.instructions - self._snap_instructions,
            simd_instructions=counters.simd_instructions - self._snap_simd,
            mlc_hits=mlc_hits - self._snap_mlc_hits,
            mlc_accesses=mlc_accesses - self._snap_mlc_accesses,
            branches=counters.branches - self._snap_branches,
            mispredicts=counters.mispredicts - self._snap_mispredicts,
            bpu_large_active=self._bpu_mode_this_window,
            mlc_at_full_ways=self._mlc_full_this_window,
        )
        self._snap_instructions = counters.instructions
        self._snap_simd = counters.simd_instructions
        self._snap_branches = counters.branches
        self._snap_mispredicts = counters.mispredicts
        self._snap_mlc_hits = mlc_hits
        self._snap_mlc_accesses = mlc_accesses
        return stats

    def _window_end(self, now_cycles: float) -> float:
        self.windows_seen += 1
        listener = self.core.fastpath_listener
        if listener is not None:
            # Window boundaries are where phase behaviour may shift:
            # conservatively reset the fast path's replay streaks.
            listener.note_window()
        signature = self.htb.signature(self.config.signature_length)
        tracer = self.tracer
        if tracer.active:
            # Window-boundary processing happens "at" now_cycles; advance
            # the tracer clock so every event emitted below (PVT probe, CDE
            # decision, gating transitions) is stamped consistently.
            tracer.now = now_cycles
            if signature != self._last_phase:
                if self._last_phase is not None:
                    tracer.emit(
                        EventKind.PHASE_EXIT,
                        now_cycles,
                        {"signature": self._last_phase, "window": self.windows_seen},
                    )
                tracer.emit(
                    EventKind.PHASE_ENTER,
                    now_cycles,
                    {"signature": signature, "window": self.windows_seen},
                )
                self._last_phase = signature
        if self.config.collect_phase_vectors:
            self.phase_log.append((signature, self.htb.translation_vector()))
        stats = self._window_stats()
        if self.windows_seen <= self.config.warmup_windows:
            # Warmup epoch: caches, predictors and the region cache are
            # still filling, so criticality measured now would not reflect
            # the phase's steady-state behaviour.  Keep observing only.
            self.htb.flush()
            self._bpu_mode_this_window = (
                self.core.states.bpu_large_on and not self.core.bpu.force_small
            )
            self._mlc_full_this_window = (
                self.core.states.mlc_ways == self.design.mlc_assoc
            )
            return 0.0
        cycles = 0.0

        # Step A: if the window that just ended was a measurement window for
        # a phase in profiling mode, hand its counters to the CDE.  If the
        # phase changed mid-profiling the partial profile is kept and resumed
        # the next time the phase recurs (Algorithm 1's "continued phase").
        if self._measuring is not None:
            if self._measuring == signature:
                if self._measure_warming:
                    # First window after the measurement configuration
                    # powered up a cold structure: keep collecting instead.
                    self._measure_warming = False
                else:
                    policy = self.cde.feed_profile_window(signature, stats)
                    if policy is not None:
                        self._register(signature, policy)
                        self._measuring = None
            else:
                self._measuring = None
                self._measure_warming = False

        # Step B: the PVT lookup the HTB initiates at every window boundary.
        policy = self.pvt.lookup(signature)
        if policy is not None:
            cycles += self._apply_policy(policy, now_cycles)
        else:
            cycles += self.nucleus.raise_interrupt("pvt_miss", signature, now_cycles)

        self.htb.flush()
        self._bpu_mode_this_window = (
            self.core.states.bpu_large_on and not self.core.bpu.force_small
        )
        self._mlc_full_this_window = (
            self.core.states.mlc_ways == self.design.mlc_assoc
        )
        return cycles

    def _handle_pvt_miss(self, signature: PhaseSignature, now_cycles: float) -> float:
        action, payload = self.cde.on_pvt_miss(
            signature,
            current_vpu_on=self.core.states.vpu_on,
            current_mlc_ways=self.core.states.mlc_ways,
        )
        if action == "ignore":
            return 0.0
        if action == "register":
            self._register(signature, payload)
            return self._apply_policy(payload, now_cycles)
        # Profiling: configure the measurement state for the next window.
        self._measuring = signature
        return self._arm_measurement(payload, now_cycles)

    def _register(self, signature: PhaseSignature, policy: PolicyVector) -> None:
        evicted = self.pvt.insert(signature, policy)
        if evicted is not None:
            self.cde.store_evicted(*evicted)

    # --------------------------------------------------------- unit gating

    def _trace_switch(
        self,
        unit: str,
        old,
        new,
        cost: float,
        now_cycles: float,
        arm: bool = False,
        writebacks: Optional[int] = None,
    ) -> None:
        """Emit one UnitGate/Regate event (caller guards ``tracer.active``).

        A VPU or BPU power-up, and an MLC way increase, is a *regate* (pays
        the rewarm `cost`); the opposite direction is a *gate*.  VPU events
        snapshot ``native_ops`` and BPU events ``lookups`` so trace
        consumers can prove what ran inside each interval.
        """
        gate = new < old if unit == "mlc" else (old and not new)
        payload = {
            "unit": unit,
            "from": int(old),
            "to": int(new),
            "cost_cycles": cost,
        }
        if unit == "vpu":
            payload["native_ops"] = self.core.vpu.native_ops
        elif unit == "bpu":
            payload["lookups"] = self.core.bpu.lookups
        if writebacks is not None:
            payload["writebacks"] = writebacks
        if arm:
            payload["arm"] = True
        self.tracer.emit(
            EventKind.UNIT_GATE if gate else EventKind.UNIT_REGATE,
            now_cycles,
            payload,
        )

    def _arm_measurement(self, payload: PolicyVector, now_cycles: float) -> float:
        """Configure the hardware for a CDE profiling window.

        Differs from applying a real policy in two ways.  First, measuring
        ``MisPred_Small`` routes predictions through the (always-powered)
        small predictor instead of power gating the large side — gating
        would flush the tournament state and poison the *next* phase's
        ``MisPred_Large`` measurement.  Second, powering up a cold
        structure (large BPU, gated MLC ways) marks the next window as
        warmup so criticality is not measured against cold state.
        """
        core = self.core
        design = self.design
        cycles = 0.0
        self._measure_warming = False
        listener = core.fastpath_listener
        if listener is not None:
            listener.note_policy_action()

        # The CDE leaves the VPU as it is while measuring (see
        # CriticalityDecisionEngine._measurement_states).
        core.bpu.force_small = not payload.bpu_on
        if payload.bpu_on and not core.states.bpu_large_on:
            cycles += design.bpu_switch_cycles
            core.apply_bpu_state(True)
            if self.accountant is not None:
                self.accountant.on_switch("bpu", True, now_cycles)
            if self.tracer.active:
                self._trace_switch(
                    "bpu", False, True, design.bpu_switch_cycles, now_cycles, arm=True
                )
            self._measure_warming = True

        if payload.mlc_ways > core.states.mlc_ways:
            old_ways = core.states.mlc_ways
            core.apply_mlc_state(payload.mlc_ways)  # upsize: no writebacks
            cycles += design.mlc_switch_cycles
            if self.accountant is not None:
                self.accountant.on_switch("mlc", payload.mlc_ways, now_cycles)
            if self.tracer.active:
                self._trace_switch(
                    "mlc",
                    old_ways,
                    payload.mlc_ways,
                    design.mlc_switch_cycles,
                    now_cycles,
                    arm=True,
                    writebacks=0,
                )
            self._measure_warming = True

        return cycles

    def _apply_policy(self, policy: PolicyVector, now_cycles: float) -> float:
        """Drive unit states to ``policy``; returns transition stall cycles."""
        core = self.core
        design = self.design
        states = core.states
        cycles = 0.0
        core.bpu.force_small = False
        listener = core.fastpath_listener
        if listener is not None:
            listener.note_policy_action()

        if policy.vpu_on != states.vpu_on:
            cost = design.vpu_switch_cycles + design.vpu_save_restore_cycles
            cycles += cost
            was_on = states.vpu_on
            core.apply_vpu_state(policy.vpu_on)
            if self.accountant is not None:
                self.accountant.on_switch("vpu", policy.vpu_on, now_cycles)
            if self.tracer.active:
                self._trace_switch("vpu", was_on, policy.vpu_on, cost, now_cycles)

        if policy.bpu_on != states.bpu_large_on:
            cycles += design.bpu_switch_cycles
            was_on = states.bpu_large_on
            core.apply_bpu_state(policy.bpu_on)
            if self.accountant is not None:
                self.accountant.on_switch("bpu", policy.bpu_on, now_cycles)
            if self.tracer.active:
                self._trace_switch(
                    "bpu", was_on, policy.bpu_on, design.bpu_switch_cycles, now_cycles
                )

        if policy.mlc_ways != states.mlc_ways:
            old_ways = states.mlc_ways
            dirty = core.apply_mlc_state(policy.mlc_ways)
            cost = design.mlc_switch_cycles + dirty * design.writeback_cycles_per_line
            cycles += cost
            if self.accountant is not None:
                self.accountant.on_switch("mlc", policy.mlc_ways, now_cycles)
            if self.tracer.active:
                self._trace_switch(
                    "mlc", old_ways, policy.mlc_ways, cost, now_cycles,
                    writebacks=dirty,
                )

        return cycles

    # -------------------------------------------------------------- stats

    @property
    def pvt_miss_rate_per_translation(self) -> float:
        """PVT misses per executed translation (§IV-C3 reports 0.017 %)."""
        if not self.translation_executions:
            return 0.0
        return self.pvt.misses / self.translation_executions
