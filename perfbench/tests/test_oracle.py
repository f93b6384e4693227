"""Self-tests of output checking and failure accounting against the oracle."""

import copy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import body, oracle, workloads  # noqa: E402


def test_tally_counts_every_kind_of_failure():
    tally = oracle.Tally({"a": {"digest": "x"}, "b": {"digest": "y"}})
    tally.check("a", {"digest": "x"})
    tally.check("b", {"digest": "wrong"})
    tally.check("b", {"error": "RuntimeError: boom"})
    tally.check("b", None)
    tally.check("c", {"digest": "x"})  # nothing expected for it
    tally.check("again", {"digest": "x"}, expected_key="a")
    assert tally.attempted == 6
    assert len(tally.failures) == 4
    assert tally.fail_frac == pytest.approx(4 / 6)
    assert not tally.correct
    assert "RuntimeError: boom" in tally.failures[1]


def test_tally_with_nothing_attempted_is_not_correct():
    tally = oracle.Tally({})
    assert tally.fail_frac == 1.0 and not tally.correct


def test_different_simulated_work_makes_the_run_invalid():
    tally = oracle.Tally({"a": {"digest": "x"}})
    tally.check("a", {"digest": "x"})
    tally.check_work({"sim.instructions": 10}, {"sim.instructions": 10})
    assert tally.correct
    tally.check_work({"sim.instructions": 10, "sim.jobs": 1},
                     {"sim.instructions": 12, "sim.jobs": 1})
    assert not tally.correct and tally.failures == []
    assert tally.invalid == ["sim.instructions: simulated 12, pinned 10"]


def test_a_powerchop_run_without_a_gating_decision_makes_the_run_invalid():
    tally = oracle.Tally({"a": {"digest": "x"}})
    tally.check("a", {"digest": "x"})
    tally.check_work({"sim.jobs": 1}, {"sim.jobs": 1}, undecided=1)
    assert not tally.correct
    assert tally.invalid == ["1 POWERCHOP runs made no gating decision"]


def test_canonical_form_ignores_key_types_and_order():
    assert oracle.digest({2: 1.5, 10: (1, 2)}) == oracle.digest({"10": [1, 2], "2": 1.5})
    assert oracle.digest({"a": 0.1}) != oracle.digest({"a": 0.1 + 1e-17 + 1e-16})


def test_expected_covers_every_operation_a_workload_issues():
    expected = oracle.load_expected()
    names = [name for name, _job in workloads.study_jobs(seed=3)]
    assert sorted(names) == sorted(expected["study_sweep"]["outputs"])
    assert set(expected["paper_artifacts"]["outputs"]) == set(workloads.ARTIFACTS)
    combos = expected["cli_run"]["combos"]
    assert len(combos) == 29 * len(workloads.CLI_MODES)
    assert set(combos) == set(expected["cli_run"]["outputs"])
    for seed in range(5):
        requests = workloads.cli_requests(seed, 30, combos)
        assert set(requests) <= set(combos)
        assert sorted(r.split("/")[0] for r in requests) == sorted({c.split("/")[0] for c in combos})
    assert workloads.cli_requests(7, 30, combos) == workloads.cli_requests(7, 30, combos)
    assert workloads.cli_requests(7, 30, combos) != workloads.cli_requests(8, 30, combos)
    assert len(workloads.cli_requests(7, 90, combos)) == 2 * 29


def test_real_output_matches_and_a_corrupted_expectation_fails():
    from repro.sim.engine import ResultCache, run_jobs

    expected = oracle.load_expected()["study_sweep"]["outputs"]
    jobs = [(n, j) for n, j in workloads.study_jobs(seed=0) if n in ("milc/full", "milc/powerchop")]
    observed = body.sweep_outputs([n for n, _ in jobs], run_jobs([j for _, j in jobs], workers=1,
                                                                   cache=ResultCache(enabled=False)))
    tally = oracle.Tally(expected)
    for name, _job in jobs:
        tally.check(name, observed["outputs"][name])
    assert tally.failures == []

    corrupted = copy.deepcopy(expected)
    digest = corrupted["milc/powerchop"]["digest"]
    corrupted["milc/powerchop"]["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    tally = oracle.Tally(corrupted)
    for name, _job in jobs:
        tally.check(name, observed["outputs"][name])
    assert tally.failures == ["milc/powerchop: output differs from the reference backend"]
    assert tally.fail_frac == 0.5 and not tally.correct
