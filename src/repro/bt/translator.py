"""The BT translator: builds superblock translations from hot code."""

from __future__ import annotations

from repro.bt.region_cache import Translation
from repro.isa.blocks import BasicBlock, CodeRegion
from repro.isa.branches import (
    BiasedBranch,
    BranchModel,
    GlobalCorrelatedBranch,
    LoopBranch,
    PatternBranch,
)


def likely_taken(model: BranchModel) -> bool:
    """The translator's profile-guided guess of a branch's dominant direction.

    A production BT bases this on the interpreter's edge profile; here the
    behaviour models *are* the ground-truth profile, so we read the dominant
    direction straight off them (loop backedges are overwhelmingly taken,
    biased branches follow their bias, correlated/random branches default to
    fall-through).
    """
    if isinstance(model, LoopBranch):
        return True
    if isinstance(model, PatternBranch):
        taken = sum(model.pattern)
        return taken * 2 > len(model.pattern)
    if isinstance(model, GlobalCorrelatedBranch):
        return False
    if isinstance(model, BiasedBranch):  # includes RandomBranch
        return model.p_taken > 0.5
    return False


class Translator:
    """Builds trace (superblock) translations along the likely hot path.

    Starting from a newly-hot block, the translator follows each block's
    likely successor for up to ``max_blocks`` blocks, stopping when the
    path would revisit a block already in the trace (a loop closed).  For
    every vector instruction in the trace it also emits an alternate scalar
    emulation path (§IV-C2), which the core executes when the VPU is gated
    off.
    """

    def __init__(self, max_blocks: int = 6) -> None:
        if max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")
        self.max_blocks = max_blocks
        self.translations_built = 0
        self.instructions_translated = 0

    def translate(self, region: CodeRegion, head: BasicBlock) -> Translation:
        blocks = region.blocks
        path = [head]
        seen = {head.pc}
        current = head
        while len(path) < self.max_blocks:
            if current.branch is None:
                succ_idx = current.fall_succ
            elif likely_taken(current.branch.model):
                succ_idx = current.taken_succ
            else:
                succ_idx = current.fall_succ
            nxt = blocks[succ_idx]
            if nxt.pc in seen:
                break
            path.append(nxt)
            seen.add(nxt.pc)
            current = nxt

        translation = Translation(
            head_pc=head.pc,
            block_pcs=tuple(b.pc for b in path),
            n_instr=sum(b.n_instr for b in path),
            n_vector=sum(b.mix.vector for b in path),
            region_id=region.region_id,
        )
        self.translations_built += 1
        self.instructions_translated += translation.n_instr
        return translation
