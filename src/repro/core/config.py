"""PowerChop configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.core.criticality import CriticalityThresholds


@dataclass(frozen=True)
class PowerChopConfig:
    """Tunables for the PowerChop mechanism.

    Defaults are the paper's chosen design point: 1000-translation
    execution windows, 4-translation signatures, a 128-entry HTB and a
    16-entry PVT (§IV-B).  ``managed_units`` restricts which units the CDE
    may gate — the per-unit isolation studies of §V-C manage one unit at a
    time.
    """

    window_size: int = 1000
    signature_length: int = 4
    htb_entries: int = 128
    pvt_entries: int = 16
    thresholds: CriticalityThresholds = field(default_factory=CriticalityThresholds)
    managed_units: Tuple[str, ...] = ("vpu", "bpu", "mlc")
    #: Cycle cost of one CDE invocation via the nucleus interrupt path.
    #: Calibrated so the paper's observed 0.017 % PVT-miss rate costs
    #: < 0.5 % performance (§IV-C3).
    cde_interrupt_cycles: float = 2000.0
    #: Windows to observe before the first gating decisions are made,
    #: letting caches/predictors and the region cache warm so phase profiles
    #: reflect steady-state behaviour (the paper profiles SimPoint regions,
    #: which are likewise measured post-warmup).
    warmup_windows: int = 8
    #: Phase-transition ("straddle") signatures mix two phases and rarely
    #: recur in consecutive windows, so their forward-scheduled profiling
    #: can never complete.  After this many failed attempts the CDE assigns
    #: the safe full-power policy instead of re-arming measurement forever.
    max_profile_attempts: int = 3
    #: Use the extended 4-state MLC gating policy (adds a quarter-ways
    #: state via the PVT's reserved M=0b10 encoding; paper §IV-B3 notes
    #: states can be added this way).  Off by default — the paper evaluates
    #: the 3-state policy.
    extended_mlc_states: bool = False
    #: Collect per-window translation vectors for the Fig. 8 phase-quality
    #: analysis (costs memory; off by default).
    collect_phase_vectors: bool = False

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.signature_length < 1:
            raise ValueError("signature_length must be >= 1")
        if self.htb_entries < self.signature_length:
            raise ValueError("HTB must hold at least signature_length entries")
        if self.pvt_entries < 1:
            raise ValueError("PVT needs at least one entry")
        if not self.managed_units:
            raise ValueError("managed_units must name at least one unit")
        unknown = set(self.managed_units) - {"vpu", "bpu", "mlc"}
        if unknown:
            raise ValueError(f"unknown managed units {sorted(unknown)}")
        if self.cde_interrupt_cycles < 0:
            raise ValueError("cde_interrupt_cycles must be non-negative")
