"""Proof pass: what a workload's structure certifies, as an offline report.

The fourth staticcheck pass (``python -m repro staticcheck --prove``).
Where passes 1-3 diagnose and summarize, this pass *certifies*: an abstract
interpretation over a workload's CFGs, branch models, and address-stream
specs yields a :class:`ProfileCertificate` whose :meth:`~ProfileCertificate.report`
says which facts hold and, where they do not, exactly why:

- :class:`RegionProof` — classifies every reachable branch model on the
  outcome lattice ``closed_form < buffered_stochastic < history_coupled <
  opaque``.  A region whose reachable branches are all closed-form
  (:class:`~repro.isa.branches.LoopBranch` /
  :class:`~repro.isa.branches.PatternBranch`) is **deterministic**: its walk
  trace is a pure function of the entry block and the branch-phase vector.
- :class:`StreamProof` — per-phase address bounds: every stream lives in
  its own ``_PHASE_SLOT``-aligned slot and its span stays inside the slot,
  so the phases' address ranges are pairwise disjoint and line-aligned for
  any line size dividing the slot size.
- :class:`WindowProof` — a bound on the distinct translation heads the
  schedule can ever expose; when it fits the HTB, hot-table overflow is
  impossible.

Certificates are a report only: no simulation consumes them.  The
vectorized backend derives the facts it needs (phase-slot disjointness,
MLC occupancy) from the live workload on every run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.isa.blocks import CodeRegion
from repro.isa.branches import (
    BiasedBranch,
    GlobalCorrelatedBranch,
    LoopBranch,
    PatternBranch,
    RandomBranch,
)
from repro.staticcheck.cfg import reachable_blocks
from repro.workloads.generator import _PHASE_SLOT, SyntheticWorkload
from repro.workloads.profiles import BenchmarkProfile, build_workload

__all__ = [
    "RegionProof",
    "StreamProof",
    "WindowProof",
    "ProfileCertificate",
    "classify_model",
    "prove_region",
    "stream_slots",
    "prove_streams",
    "prove_window",
    "certify_workload",
]

#: Outcome-closed-form classes, weakest knowledge last.
CLOSED_FORM = "closed_form"
BUFFERED = "buffered_stochastic"
HISTORY_COUPLED = "history_coupled"
OPAQUE = "opaque"


def classify_model(model) -> str:
    """Place one branch model on the outcome-knowledge lattice.

    Exact-type dispatch, mirroring the vectorized walk table: a *subclass*
    of a known model could override ``next_outcome`` arbitrarily, so it
    classifies as opaque rather than inheriting its parent's class.
    """
    tm = type(model)
    if tm is LoopBranch or tm is PatternBranch:
        return CLOSED_FORM
    if tm is BiasedBranch or tm is RandomBranch:
        return BUFFERED
    if tm is GlobalCorrelatedBranch:
        return HISTORY_COUPLED
    return OPAQUE


@dataclass(frozen=True)
class RegionProof:
    """Determinism verdict for one region, with the evidence behind it."""

    phase: str
    region_id: int
    deterministic: bool
    classes: Mapping[str, int]  # lattice class -> reachable branch count
    reasons: Tuple[str, ...]  # why not deterministic (empty when it is)


@dataclass(frozen=True)
class StreamProof:
    """Certified per-phase address bounds and slot geometry.

    ``slots`` holds one ``(phase, base, span, pattern, stride, random_frac)``
    tuple per phase, in phase order.  ``slotted`` asserts the geometric
    invariant disjointness follows from: base ``i`` is exactly
    ``(i + 1) * _PHASE_SLOT`` and every span fits inside its slot.
    """

    slots: Tuple[Tuple[str, int, int, str, int, float], ...]
    slotted: bool


@dataclass(frozen=True)
class WindowProof:
    """Idle-window safety precondition for cross-window burst replay.

    ``head_bound`` is the number of distinct translation heads the schedule
    can ever expose (every block of every scheduled region, since any block
    may head a translation).
    """

    head_bound: int
    n_regions: int


def prove_region(phase: str, region: CodeRegion) -> RegionProof:
    """Abstractly interpret one region's branches into a determinism proof."""
    classes: Dict[str, int] = {}
    reasons = []
    for idx in sorted(reachable_blocks(region)):
        block = region.blocks[idx]
        if block.branch is None:
            continue
        cls_name = classify_model(block.branch.model)
        classes[cls_name] = classes.get(cls_name, 0) + 1
        if cls_name != CLOSED_FORM:
            reasons.append(
                f"block {idx}: {type(block.branch.model).__name__} is {cls_name}"
            )
    return RegionProof(
        phase=phase,
        region_id=region.region_id,
        deterministic=not reasons,
        classes=classes,
        reasons=tuple(reasons),
    )


def stream_slots(
    workload: SyntheticWorkload,
) -> Tuple[Tuple[str, int, int, str, int, float], ...]:
    """Live per-phase stream geometry, in phase order.

    Span mirrors the vectorized backend's hoist: the stream limit for
    unbounded ``stream`` patterns, the working set for bounded ones.
    """
    slots = []
    for name, idx in workload._phase_order.items():
        # Same seed expression as SyntheticWorkload.trace / the backends.
        stream = workload.phases[name].address_stream(
            idx, workload.seed ^ zlib.crc32(name.encode()) & 0xFFFF
        )
        behavior = stream.behavior
        span = (
            stream._stream_limit
            if behavior.pattern == "stream"
            else stream._ws_bytes
        )
        slots.append(
            (
                name,
                stream.base,
                span,
                behavior.pattern,
                behavior.stride,
                behavior.random_frac,
            )
        )
    return tuple(slots)


def prove_streams(workload: SyntheticWorkload) -> StreamProof:
    slots = stream_slots(workload)
    slotted = all(
        base == (i + 1) * _PHASE_SLOT and 0 < span <= _PHASE_SLOT
        for i, (_, base, span, _, _, _) in enumerate(slots)
    )
    return StreamProof(slots=slots, slotted=slotted)


def prove_window(workload: SyntheticWorkload) -> WindowProof:
    regions = {p.region.region_id: p.region for p in workload.phases.values()}
    return WindowProof(
        head_bound=sum(len(r.blocks) for r in regions.values()),
        n_regions=len(regions),
    )


@dataclass(frozen=True)
class ProfileCertificate:
    """The proof bundle for one profile build."""

    benchmark: str
    suite: str
    seed: int
    regions: Tuple[RegionProof, ...]
    stream: StreamProof
    window: WindowProof

    @property
    def deterministic_regions(self) -> Tuple[RegionProof, ...]:
        return tuple(r for r in self.regions if r.deterministic)

    def report(self) -> dict:
        """Coverage summary for the CLI / CI proof-coverage artifact."""
        det = self.deterministic_regions
        return {
            "benchmark": self.benchmark,
            "suite": self.suite,
            "seed": self.seed,
            "regions": len(self.regions),
            "deterministic_regions": len(det),
            "deterministic_phases": [r.phase for r in det],
            "non_deterministic_reasons": {
                r.phase: list(r.reasons) for r in self.regions if not r.deterministic
            },
            "stream_slotted": self.stream.slotted,
            "window_head_bound": self.window.head_bound,
        }


def certify_workload(
    profile: BenchmarkProfile,
    workload: Optional[SyntheticWorkload] = None,
    seed: Optional[int] = None,
) -> ProfileCertificate:
    """Run the proof pass over one profile build.

    Certification is read-only over the workload — it inspects model
    parameters and stream geometry but performs no RNG draws.
    """
    if workload is None:
        workload = build_workload(profile, seed)
    region_proofs = []
    seen_regions = set()
    for name in workload._phase_order:
        region = workload.phases[name].region
        if region.region_id in seen_regions:
            continue
        seen_regions.add(region.region_id)
        region_proofs.append(prove_region(name, region))
    return ProfileCertificate(
        benchmark=profile.name,
        suite=profile.suite,
        seed=workload.seed,
        regions=tuple(region_proofs),
        stream=prove_streams(workload),
        window=prove_window(workload),
    )
