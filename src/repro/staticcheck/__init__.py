"""Static analysis over the synthetic ISA: CFG verification and dataflow
summaries.

Two layered passes (see DESIGN.md §"Static analysis"):

1. :func:`verify_region` — structural CFG invariants of a
   :class:`~repro.isa.blocks.CodeRegion` (successor ranges, reachability,
   branch/mix consistency, PC layout);
2. :func:`summarize_region` — fixpoint dataflow producing per-region static
   unit-usage summaries (:class:`RegionSummary`).

``python -m repro staticcheck`` runs both over any workload profile and
reports diagnostics with severity levels.  No simulation consumes the
results: the CDE measures criticality dynamically, as in the paper.
"""

from repro.staticcheck.analyzer import (
    ProfileAnalysis,
    RegionAnalysis,
    analyze_profile,
    analyze_region,
    analyze_workload,
)
from repro.staticcheck.cfg import reachable_blocks, verify_region
from repro.staticcheck.dataflow import (
    RegionSummary,
    branch_entropy_bits,
    static_taken_probability,
    summarize_region,
)
from repro.staticcheck.diagnostics import Diagnostic, Severity

__all__ = [
    "Diagnostic",
    "Severity",
    "verify_region",
    "reachable_blocks",
    "RegionSummary",
    "summarize_region",
    "static_taken_probability",
    "branch_entropy_bits",
    "RegionAnalysis",
    "ProfileAnalysis",
    "analyze_region",
    "analyze_workload",
    "analyze_profile",
]
