"""Tests for the proof pass (repro.staticcheck.proofs).

The proof pass is an offline report: region / stream / window proofs over
a profile build, summarised per profile by ``staticcheck --prove``.  No
simulation consumes it, so the run path must not even import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

from repro.isa.blocks import CodeRegion
from repro.isa.branches import (
    BiasedBranch,
    GlobalCorrelatedBranch,
    LoopBranch,
    PatternBranch,
)
from repro.sim.simulator import GatingMode, HybridSimulator
from repro.staticcheck.proofs import (
    BUFFERED,
    CLOSED_FORM,
    HISTORY_COUPLED,
    OPAQUE,
    certify_workload,
    classify_model,
    prove_region,
    prove_streams,
    prove_window,
)
from repro.uarch.config import design_for_suite
from repro.workloads.profiles import build_workload
from repro.workloads.suites import get_profile

from tests.test_staticcheck import make_block


def _closed_form_region():
    """A 3-block region whose every branch is a Loop/Pattern model."""
    b0 = make_block(0x1000, branch_model=LoopBranch(4), taken=1, fall=2)
    b1 = make_block(0x2000, branch_model=PatternBranch([True, False]), taken=0, fall=2)
    b2 = make_block(0x3000, branch_model=LoopBranch(3), taken=0, fall=1)
    return CodeRegion(0, [b0, b1, b2], entry=0)


# ------------------------------------------------------------ classification


class TestClassification:
    def test_lattice_placement(self):
        from repro.isa.branches import RandomBranch

        assert classify_model(LoopBranch(4)) == CLOSED_FORM
        assert classify_model(PatternBranch([True, False])) == CLOSED_FORM
        assert classify_model(BiasedBranch(0.5)) == BUFFERED
        assert classify_model(RandomBranch()) == BUFFERED
        assert classify_model(GlobalCorrelatedBranch()) == HISTORY_COUPLED

    def test_subclasses_are_opaque(self):
        # A subclass may override next_outcome arbitrarily; exact-type
        # dispatch must not inherit the parent's classification.
        class SneakyLoop(LoopBranch):
            pass

        assert classify_model(SneakyLoop(4)) == OPAQUE


# ------------------------------------------------------------- region proofs


class TestRegionProofs:
    def test_closed_form_region_certifies_deterministic(self):
        proof = prove_region("p", _closed_form_region())
        assert proof.deterministic, proof.reasons
        assert proof.reasons == ()
        assert proof.classes == {CLOSED_FORM: 3}

    def test_paper_profiles_do_not_certify(self):
        # Every paper benchmark mixes in stochastic branches; the proof
        # must say so per-block rather than silently certify.
        workload = build_workload(get_profile("gobmk"))
        proofs = [
            prove_region(name, phase.region)
            for name, phase in workload.phases.items()
        ]
        assert not any(p.deterministic for p in proofs)
        assert all(p.reasons for p in proofs)

    def test_mutating_a_model_flips_the_verdict(self):
        region = _closed_form_region()
        assert prove_region("p", region).deterministic
        region.blocks[1].branch.model = BiasedBranch(0.5, seed=3)
        after = prove_region("p", region)
        assert not after.deterministic
        assert after.reasons == ("block 1: BiasedBranch is buffered_stochastic",)


# ----------------------------------------------------- stream / window proofs


class TestStreamAndWindowProofs:
    def test_stream_slots_are_certified_disjoint(self):
        workload = build_workload(get_profile("gems"))
        proof = prove_streams(workload)
        assert proof.slotted
        assert len(proof.slots) == len(workload.phases)
        # Slotted means pairwise-disjoint ranges by construction; check it.
        ranges = sorted((base, base + span) for _, base, span, *_ in proof.slots)
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi <= lo

    def test_window_head_bound_counts_every_block(self):
        workload = build_workload(get_profile("bzip2"))
        proof = prove_window(workload)
        regions = {p.region.region_id: p.region for p in workload.phases.values()}
        assert proof.n_regions == len(regions)
        assert proof.head_bound == sum(len(r.blocks) for r in regions.values())


# ------------------------------------------------------- certificate bundles


class TestCertificate:
    def test_report_shape(self):
        profile = get_profile("milc")
        report = certify_workload(profile).report()
        assert report["benchmark"] == "milc"
        assert report["deterministic_regions"] == 0
        assert report["deterministic_phases"] == []
        reasons = report["non_deterministic_reasons"]
        assert set(reasons) == {p.name for p in profile.phases}
        assert all(reasons.values())
        assert report["stream_slotted"] is True
        assert "content_hash" not in report

    def test_certification_is_read_only(self):
        # Certifying the live workload must not advance any RNG: a
        # simulation after certification matches one without it.
        profile = get_profile("bzip2")
        design = design_for_suite(profile.suite)

        def run(certify_first):
            workload = build_workload(profile)
            if certify_first:
                certify_workload(profile, workload=workload)
            sim = HybridSimulator(design, workload, GatingMode.FULL)
            return sim.run(60_000).to_dict()

        assert run(True) == run(False)


# ------------------------------------------------------------- the boundary


def test_run_path_never_imports_the_proof_pass():
    # A fresh interpreter: this test process has imported the proofs
    # module already.  Running a job must not pull it in.
    code = (
        "import sys\n"
        "from repro.sim.engine import SimJob, execute_job\n"
        "record = execute_job(SimJob(benchmark='hmmer', max_instructions=20_000,"
        " backend='vectorized'))\n"
        "assert record.ok\n"
        "assert 'repro.staticcheck.proofs' not in sys.modules, 'proofs imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
