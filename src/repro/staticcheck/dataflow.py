"""Static dataflow over region CFGs: unit-usage summaries before execution.

The binary translator sees a region's code before it runs, so properties of
the *static* CFG can be proven ahead of any profiling window.  This pass
computes, per region:

- the reachable block set and its static instruction/vector-op totals —
  ``static_vector_ops == 0`` is a *proof* that the region can never issue a
  vector instruction, making the VPU trivially non-critical for every phase
  confined to the region (reported as ``vpu_dead``);
- estimated steady-state block visit frequencies, via damped fixpoint
  iteration over the CFG's edge probabilities (each
  :class:`~repro.isa.branches.BranchModel` exposes a static taken
  probability: a loop backedge is taken ``(period-1)/period`` of the time, a
  biased branch follows its bias, correlated/random branches split 50/50);
- frequency-weighted load/store densities and vector fraction — static
  *estimates* of the dynamic quantities the CDE measures; and
- a branch-entropy bound (expected bits of irreducible outcome entropy per
  branch): deterministic loop/pattern models contribute 0 bits, a biased
  branch its Bernoulli entropy, a correlated branch only its noise term
  (a global predictor can learn the parity function), a random branch a
  full bit.

The visit-frequency fixpoint uses a restart ("damping") term at the region
entry, which guarantees geometric convergence even on purely deterministic
cycles where the undamped power iteration would oscillate forever.  The
frequencies are therefore estimates — but the soundness-critical facts
(reachability, ``vpu_dead``) never depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.isa.blocks import CodeRegion
from repro.isa.branches import (
    BiasedBranch,
    BranchModel,
    GlobalCorrelatedBranch,
    LoopBranch,
    PatternBranch,
)
from repro.staticcheck.cfg import block_successors, reachable_blocks

__all__ = [
    "RegionSummary",
    "summarize_region",
    "static_taken_probability",
    "branch_entropy_bits",
]

#: Restart weight of the visit-frequency fixpoint (mass teleported back to
#: the region entry each step); the complement damps the CFG transition.
DAMPING = 0.9


def _bernoulli_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def static_taken_probability(model: BranchModel) -> float:
    """Long-run taken probability of a branch model, read off statically."""
    if isinstance(model, LoopBranch):
        return (model.period - 1) / model.period
    if isinstance(model, PatternBranch):
        return sum(model.pattern) / len(model.pattern)
    if isinstance(model, GlobalCorrelatedBranch):
        return 0.5
    if isinstance(model, BiasedBranch):  # includes RandomBranch
        return model.p_taken
    return 0.5


def branch_entropy_bits(model: BranchModel) -> float:
    """Upper bound on irreducible outcome entropy, in bits per execution.

    "Irreducible" means entropy no predictor can remove: deterministic
    models carry none, a correlated branch only its noise flips (its parity
    function is learnable from global history), a biased branch its full
    Bernoulli entropy.
    """
    if isinstance(model, (LoopBranch, PatternBranch)):
        return 0.0
    if isinstance(model, GlobalCorrelatedBranch):
        return _bernoulli_entropy(model.noise)
    if isinstance(model, BiasedBranch):
        return _bernoulli_entropy(model.p_taken)
    return 1.0


@dataclass(frozen=True)
class RegionSummary:
    """Static unit-usage summary of one code region."""

    region_id: int
    n_blocks: int
    n_reachable: int
    #: Static instruction / vector-op totals over *reachable* blocks only.
    static_instructions: int
    static_vector_ops: int
    #: Proof bit: no reachable block contains a vector instruction, so the
    #: VPU is non-critical for any phase confined to this region.
    vpu_dead: bool
    #: Frequency-weighted estimates of dynamic per-instruction fractions.
    vector_frac: float
    load_density: float
    store_density: float
    #: Expected irreducible branch-outcome entropy, bits per branch.
    branch_entropy_bits: float
    iterations: int
    converged: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "region_id": self.region_id,
            "n_blocks": self.n_blocks,
            "n_reachable": self.n_reachable,
            "static_instructions": self.static_instructions,
            "static_vector_ops": self.static_vector_ops,
            "vpu_dead": self.vpu_dead,
            "vector_frac": self.vector_frac,
            "load_density": self.load_density,
            "store_density": self.store_density,
            "branch_entropy_bits": self.branch_entropy_bits,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _edge_weights(region: CodeRegion, index: int) -> List[tuple[int, float]]:
    """Out-edges of one block as (successor, probability); invalid successor
    indices are dropped (the CFG verifier reports them separately)."""
    block = region.blocks[index]
    succs = block_successors(region, index)
    if not succs:
        return []
    if block.branch is None or len(succs) == 1:
        return [(succs[0], 1.0)]
    p_taken = static_taken_probability(block.branch.model)
    return [(block.taken_succ, p_taken), (block.fall_succ, 1.0 - p_taken)]


def summarize_region(
    region: CodeRegion, *, tol: float = 1e-10, max_iter: int = 300
) -> RegionSummary:
    """Compute the static summary via damped fixpoint iteration."""
    reachable = sorted(reachable_blocks(region))
    blocks = region.blocks
    static_instr = sum(blocks[i].n_instr for i in reachable)
    static_vec = sum(blocks[i].n_vec for i in reachable)

    # Visit-frequency fixpoint over the reachable subgraph.
    freq: Dict[int, float] = {i: 0.0 for i in reachable}
    if reachable:
        freq[region.entry] = 1.0
    edges = {i: _edge_weights(region, i) for i in reachable}
    iterations = 0
    converged = not reachable
    for iterations in range(1, (max_iter if reachable else 0) + 1):
        nxt = {i: 0.0 for i in reachable}
        lost = 0.0  # mass on dropped (invalid) edges, teleported to entry
        for i in reachable:
            mass = freq[i]
            if not mass:
                continue
            out = edges[i]
            if not out:
                lost += mass
                continue
            total = sum(weight for _succ, weight in out)
            for succ, weight in out:
                nxt[succ] += mass * weight / total
            if total < 1.0:
                lost += mass * (1.0 - total)
        nxt[region.entry] += lost
        damped = {
            i: (1.0 - DAMPING) * (1.0 if i == region.entry else 0.0)
            + DAMPING * nxt[i]
            for i in reachable
        }
        delta = sum(abs(damped[i] - freq[i]) for i in reachable)
        freq = damped
        if delta < tol:
            converged = True
            break

    weighted_instr = sum(freq[i] * blocks[i].n_instr for i in reachable)
    weighted_vec = sum(freq[i] * blocks[i].n_vec for i in reachable)
    weighted_loads = sum(freq[i] * blocks[i].n_loads for i in reachable)
    weighted_stores = sum(
        freq[i] * (blocks[i].n_mem - blocks[i].n_loads) for i in reachable
    )
    branch_mass = sum(freq[i] for i in reachable if blocks[i].branch is not None)
    weighted_entropy = sum(
        freq[i] * branch_entropy_bits(blocks[i].branch.model)
        for i in reachable
        if blocks[i].branch is not None
    )

    return RegionSummary(
        region_id=region.region_id,
        n_blocks=len(blocks),
        n_reachable=len(reachable),
        static_instructions=static_instr,
        static_vector_ops=static_vec,
        vpu_dead=static_vec == 0,
        vector_frac=weighted_vec / weighted_instr if weighted_instr else 0.0,
        load_density=weighted_loads / weighted_instr if weighted_instr else 0.0,
        store_density=weighted_stores / weighted_instr if weighted_instr else 0.0,
        branch_entropy_bits=weighted_entropy / branch_mass if branch_mass else 0.0,
        iterations=iterations,
        converged=converged,
    )
