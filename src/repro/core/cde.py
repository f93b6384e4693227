"""Criticality Decision Engine (§IV-C, Algorithm 1).

The CDE lives in the BT software and is invoked through the nucleus on PVT
misses.  It distinguishes three cases:

- **New phase** — never seen before: enter profiling mode and direct the
  hardware into the measurement configuration for the next execution
  window(s).
- **Continued phase profiling** — a phase part-way through profiling:
  collect the just-measured window and either finish (register the policy
  with the PVT) or continue collecting.
- **Evicted phase** — already characterised but evicted from the PVT: fetch
  the stored policy from memory and re-register it.

Profiling needs one window for the VPU and MLC scores (measured at full
power with the large BPU active) and — when the BPU is managed — a second
window executed on the small predictor to obtain ``MisPred_Small``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import PowerChopConfig
from repro.core.criticality import (
    CriticalityScores,
    bpu_criticality,
    decide_policy,
    mlc_criticality,
    vpu_criticality,
)
from repro.core.policies import PolicyVector, full_power_policy
from repro.core.signature import PhaseSignature
from repro.obs.events import EventKind
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.uarch.config import DesignPoint


@dataclass(frozen=True)
class WindowStats:
    """Performance-counter deltas over one execution window."""

    instructions: int
    simd_instructions: int
    mlc_hits: int
    mlc_accesses: int
    branches: int
    mispredicts: int
    bpu_large_active: bool
    mlc_at_full_ways: bool

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def mlc_demand_rate(self) -> float:
        """MLC accesses (L1 misses) per instruction — an upper bound on the
        hit rate achievable at any way configuration."""
        return self.mlc_accesses / self.instructions if self.instructions else 0.0


@dataclass
class _ProfileProgress:
    """Accumulated measurements for a phase still in profiling mode."""

    vpu_score: Optional[float] = None
    mlc_score: Optional[float] = None
    mispred_large: Optional[float] = None
    mispred_small: Optional[float] = None
    windows_collected: int = 0
    attempts: int = 0
    #: Set when a window measured at gated ways showed real MLC demand, so
    #: an honest hit-rate measurement needs the ways restored.
    mlc_needs_full: bool = False


class CriticalityDecisionEngine:
    """Software policy engine: profiles phases, assigns gating policies."""

    def __init__(
        self,
        config: PowerChopConfig,
        design: DesignPoint,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.design = design
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The CDE's in-memory store of characterised phases (backs the PVT).
        self._known: Dict[PhaseSignature, PolicyVector] = {}
        self._profiles: Dict[PhaseSignature, _ProfileProgress] = {}
        #: Transition signatures deemed unprofileable (see on_pvt_miss).
        self._ignored: set = set()

        self.invocations = 0
        self.new_phases = 0
        self.reregistrations = 0
        self.profile_windows = 0
        self.policies_assigned = 0
        self.unprofileable_phases = 0
        self.inherited_policies = 0

    # ------------------------------------------------------------- queries

    @property
    def needs_small_bpu_window(self) -> bool:
        return "bpu" in self.config.managed_units

    def known_policy(self, signature: PhaseSignature) -> Optional[PolicyVector]:
        return self._known.get(signature)

    def phases_characterised(self) -> int:
        return len(self._known)

    def decided_policies(self) -> List[Tuple[PhaseSignature, PolicyVector]]:
        """Every (signature, policy) characterisation, deterministically
        ordered — the unit A/B tests compare these maps bit-for-bit."""
        return sorted(self._known.items())

    # ----------------------------------------------------------- algorithm

    def on_pvt_miss(
        self,
        signature: PhaseSignature,
        current_vpu_on: bool = True,
        current_mlc_ways: Optional[int] = None,
    ) -> Tuple[str, Optional[PolicyVector]]:
        """Handle a PVT miss (Algorithm 1).

        Returns ``("register", policy)`` for an already-characterised
        (evicted) phase, ``("profile", measurement_states)`` directing the
        hardware configuration for the phase's next profiling window, or
        ``("ignore", None)`` for unprofileable transition signatures.
        """
        self.invocations += 1
        known = self._known.get(signature)
        if known is not None:
            self.reregistrations += 1
            self._note_decision(signature, known, "reregistered")
            return "register", known
        if signature in self._ignored:
            return "ignore", None

        progress = self._profiles.get(signature)
        if progress is None:
            inherited = self._similar_known_policy(signature)
            if inherited is not None:
                # A signature overlapping an already-characterised one in
                # all but one translation is the same phase whose 4th-hottest
                # slot wobbled between near-tied translations.  Re-profiling
                # it would risk assigning a *contradictory* policy (its
                # criticality sits wherever the first profile measured it),
                # making consecutive windows flip-flop unit states; the CDE
                # instead reuses the characterisation it already has.
                self._known[signature] = inherited
                self.inherited_policies += 1
                self._note_decision(signature, inherited, "inherited")
                return "register", inherited
            progress = _ProfileProgress()
            self._profiles[signature] = progress
            self.new_phases += 1
        progress.attempts += 1
        if (
            progress.attempts > self.config.max_profile_attempts
            and progress.windows_collected == 0
        ):
            # A transition ("straddle") signature that never recurs long
            # enough to be measured.  Its windows mix two phases whose own
            # signatures carry correct policies, so the right move is to
            # leave the units exactly as the surrounding phases set them —
            # re-arming measurement at every phase edge would thrash the
            # MLC/VPU instead.
            self._ignored.add(signature)
            del self._profiles[signature]
            self.unprofileable_phases += 1
            self._note_decision(signature, None, "unprofileable")
            return "ignore", None
        return "profile", self._measurement_states(
            progress, current_vpu_on, current_mlc_ways
        )

    def _measurement_states(
        self,
        progress: _ProfileProgress,
        current_vpu_on: bool,
        current_mlc_ways: Optional[int],
    ) -> PolicyVector:
        """Hardware configuration for the next profiling window.

        Criticality is defined relative to the full-capability units: the
        first window runs the large BPU and the optional second window
        routes through the small side for ``MisPred_Small``.  The VPU is
        left in its current state (the SIMD commit ratio is counted by the
        BT whether vector instructions run natively or emulated), and the
        MLC ways are only restored when a low-demand shortcut could not
        score the phase — upsizing for measurement costs a rewarm, so it is
        done lazily.
        """
        base = full_power_policy(self.design)
        first_window_done = progress.mispred_large is not None
        bpu_on = not (first_window_done and self.needs_small_bpu_window)
        if current_mlc_ways is None or progress.mlc_needs_full:
            mlc_ways = base.mlc_ways
        else:
            mlc_ways = current_mlc_ways
        return PolicyVector(vpu_on=current_vpu_on, bpu_on=bpu_on, mlc_ways=mlc_ways)

    def feed_profile_window(
        self, signature: PhaseSignature, stats: WindowStats
    ) -> Optional[PolicyVector]:
        """Consume one measured window for a phase in profiling mode.

        Returns the decided policy when profiling completes, else ``None``
        ("insufficient information, keep collecting").
        """
        progress = self._profiles.get(signature)
        if progress is None:
            return None
        self.profile_windows += 1
        progress.windows_collected += 1

        if stats.bpu_large_active:
            progress.vpu_score = vpu_criticality(
                stats.simd_instructions, stats.instructions
            )
            progress.mispred_large = stats.mispredict_rate
        else:
            progress.mispred_small = stats.mispredict_rate

        if stats.mlc_at_full_ways:
            progress.mlc_score = mlc_criticality(stats.mlc_hits, stats.instructions)
            progress.mlc_needs_full = False
        elif progress.mlc_score is None:
            demand = stats.mlc_demand_rate
            if demand <= self.config.thresholds.mlc_low:
                # Hits can never exceed demand, so a low-demand phase can be
                # scored without restoring (and rewarming) the gated ways.
                progress.mlc_score = demand
            else:
                progress.mlc_needs_full = True

        if progress.mispred_large is None:
            return None
        if self.needs_small_bpu_window and progress.mispred_small is None:
            return None
        if "mlc" in self.config.managed_units and progress.mlc_score is None:
            return None

        scores = CriticalityScores(
            vpu=progress.vpu_score or 0.0,
            bpu=bpu_criticality(
                progress.mispred_small or 0.0, progress.mispred_large
            ),
            mlc=progress.mlc_score or 0.0,
        )
        policy = decide_policy(
            scores,
            self.config.thresholds,
            self.design,
            self.config.managed_units,
            extended_mlc_states=self.config.extended_mlc_states,
        )
        self._known[signature] = policy
        del self._profiles[signature]
        self.policies_assigned += 1
        self._note_decision(signature, policy, "profiled", scores)
        return policy

    def _note_decision(
        self,
        signature: PhaseSignature,
        policy: Optional[PolicyVector],
        source: str,
        scores: Optional[CriticalityScores] = None,
    ) -> None:
        tracer = self.tracer
        if not tracer.active:
            return
        payload: Dict = {
            "signature": signature,
            "source": source,
            "policy": (
                [int(policy.vpu_on), int(policy.bpu_on), int(policy.mlc_ways)]
                if policy is not None
                else None
            ),
        }
        if scores is not None:
            payload["scores"] = {
                "vpu": scores.vpu,
                "bpu": scores.bpu,
                "mlc": scores.mlc,
            }
        tracer.emit(EventKind.POLICY_DECISION, tracer.now, payload)

    def _similar_known_policy(
        self, signature: PhaseSignature
    ) -> Optional[PolicyVector]:
        """Policy of a known signature differing in at most one translation."""
        sig_set = set(signature)
        needed = max(1, len(signature) - 1)
        for known_sig, policy in self._known.items():
            overlap = len(sig_set.intersection(known_sig))
            if overlap >= needed and overlap >= len(known_sig) - 1:
                return policy
        return None

    def store_evicted(
        self, signature: PhaseSignature, policy: PolicyVector
    ) -> None:
        """Persist a PVT eviction to the CDE's memory store (§IV-A step 5)."""
        self._known[signature] = policy
