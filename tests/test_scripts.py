"""Smoke tests for the repository scripts."""

import runpy
import sys

import pytest


class TestProfileSimulator:
    def test_throughput_helper(self):
        sys.path.insert(0, "scripts")
        try:
            import profile_simulator
        finally:
            sys.path.pop(0)
        from repro.sim.simulator import GatingMode

        rate = profile_simulator.throughput("hmmer", 100_000, GatingMode.FULL)
        assert rate > 10_000  # anything slower means the hot loop regressed

    def test_main_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "argv", ["profile_simulator.py", "hmmer", "100000"]
        )
        runpy.run_path("scripts/profile_simulator.py", run_name="__main__")
        out = capsys.readouterr().out
        assert "guest-instructions/s" in out
        assert "powerchop" in out

    def test_breakdown_needs_vectorized_backend(self, monkeypatch, capsys):
        # reference keeps no FastPathState and fastpath no pass split, so
        # --breakdown on either is an argparse error, not a crash or zeros.
        for backend in ("reference", "fastpath"):
            monkeypatch.setattr(
                sys,
                "argv",
                ["profile_simulator.py", "hmmer", "20000",
                 "--backend", backend, "--breakdown"],
            )
            with pytest.raises(SystemExit) as exc:
                runpy.run_path("scripts/profile_simulator.py", run_name="__main__")
            assert exc.value.code == 2
            assert "--breakdown needs --backend vectorized" in capsys.readouterr().err


class TestCheckSpeedup:
    def _gate(self):
        sys.path.insert(0, "scripts")
        try:
            import check_speedup
        finally:
            sys.path.pop(0)
        return check_speedup

    @staticmethod
    def _rates(fastpath=1.0, vectorized=1.0, milc_vec_over_fast=None):
        """One round per cell, shaped like a measured run, with the
        fastpath and vectorized rates scaled by the given factors."""
        shape = {"gobmk": (1.9, 2.3), "bzip2": (1.95, 2.5), "milc": (2.15, 4.2)}
        rates = {}
        for profile, (fast, vec) in shape.items():
            if profile == "milc" and milc_vec_over_fast is not None:
                fast, vec = 2.6, 2.6 * milc_vec_over_fast
            round_ = {
                "reference": 1e6,
                "fastpath": fast * 1e6 * fastpath,
                "vectorized": vec * 1e6 * vectorized,
            }
            rates[profile] = {m: [round_] for m in ("full", "powerchop", "minimal")}
        return rates

    def test_measured_shape_passes(self):
        assert self._gate().failures(self._rates()) == []

    def test_thirty_percent_slower_fastpath_fails(self):
        missed = self._gate().failures(self._rates(fastpath=0.7))
        assert "gobmk: fastpath/reference 1.33x < floor 1.60x" in missed
        assert not any("vectorized" in line for line in missed)

    def test_thirty_percent_slower_vectorized_fails(self):
        missed = self._gate().failures(self._rates(vectorized=0.7))
        assert "gobmk: vectorized/reference 1.61x < floor 1.95x" in missed
        assert not any("fastpath/reference" in line for line in missed)

    def test_milc_vectorized_over_fastpath_floor(self):
        gate = self._gate()
        assert gate.failures(self._rates(milc_vec_over_fast=1.6)) == []
        assert gate.failures(self._rates(milc_vec_over_fast=1.4)) == [
            "milc: best-mode vectorized/fastpath 1.40x < floor 1.50x"
        ]

    def test_cell_ratio_is_the_median_round(self):
        rounds = [
            {"reference": 1.0, "fastpath": r} for r in (2.0, 0.5, 2.2)
        ]
        assert self._gate().cell_ratio(rounds, "fastpath", "reference") == 2.0


class TestDeterminismLint:
    def _lint(self):
        sys.path.insert(0, "scripts")
        try:
            import lint_determinism
        finally:
            sys.path.pop(0)
        return lint_determinism

    def _codes(self, lint, source, tmp_path):
        bad = tmp_path / "case.py"
        bad.write_text(source)
        return [v[2] for v in lint.lint_file(bad)]

    def test_repo_is_clean(self, capsys):
        lint = self._lint()
        assert lint.main(["src/repro", "scripts"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_flags_unseeded_module_level_draws(self, tmp_path):
        lint = self._lint()
        assert self._codes(
            lint, "import random\nx = random.random()\n", tmp_path
        ) == ["D001"]
        assert self._codes(
            lint, "from random import shuffle\n", tmp_path
        ) == ["D001"]
        assert self._codes(
            lint, "import numpy as np\nx = np.random.rand(3)\n", tmp_path
        ) == ["D001"]

    def test_allows_seeded_generators(self, tmp_path):
        lint = self._lint()
        source = (
            "import random\nimport numpy as np\n"
            "rng = random.Random(7)\nx = rng.random()\n"
            "g = np.random.default_rng(7)\n"
        )
        assert self._codes(lint, source, tmp_path) == []

    def test_flags_unfrozen_spec_dataclasses(self, tmp_path):
        lint = self._lint()
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\nclass SimJob:\n    a: int = 0\n"
        )
        assert self._codes(lint, source, tmp_path) == ["D002"]
        frozen = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass SimJob:\n    a: int = 0\n"
        )
        assert self._codes(lint, frozen, tmp_path) == []

    def test_flags_unfrozen_probe_subclasses(self, tmp_path):
        lint = self._lint()
        source = (
            "from dataclasses import dataclass\n"
            "from repro.sim.probes import ProbeSpec\n"
            "@dataclass\nclass MyProbe(ProbeSpec):\n    a: int = 0\n"
        )
        assert self._codes(lint, source, tmp_path) == ["D002"]

    def test_main_exits_nonzero_on_violation(self, tmp_path, capsys):
        lint = self._lint()
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.randint(0, 9)\n")
        assert lint.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "D001" in out and "bad.py" in out

    _RUN_LOOP = (
        "def my_loop(core, workload):\n"
        "    for block in workload.trace(100):\n"
        "        core.execute_block(block)\n"
    )

    def test_flags_run_loops_outside_backends(self, tmp_path):
        lint = self._lint()
        assert self._codes(lint, self._RUN_LOOP, tmp_path) == ["D003"]

    def test_allows_run_loops_inside_backends_package(self, tmp_path):
        lint = self._lint()
        pkg = tmp_path / "repro" / "sim" / "backends"
        pkg.mkdir(parents=True)
        inside = pkg / "custom.py"
        inside.write_text(self._RUN_LOOP)
        assert lint.lint_file(inside) == []

    def test_allows_readonly_trace_scans(self, tmp_path):
        lint = self._lint()
        scan = (
            "def count_blocks(workload):\n"
            "    n = 0\n"
            "    for block in workload.trace(100):\n"
            "        n += 1\n"
            "    return n\n"
        )
        assert self._codes(lint, scan, tmp_path) == []

    def _backend_codes(self, lint, source, tmp_path):
        """Lint ``source`` as if it lived in repro/sim/backends."""
        pkg = tmp_path / "repro" / "sim" / "backends"
        pkg.mkdir(parents=True, exist_ok=True)
        case = pkg / "case.py"
        case.write_text(source)
        return [v[2] for v in lint.lint_file(case)]

    def test_flags_direct_rng_draws_in_backends(self, tmp_path):
        lint = self._lint()
        assert self._backend_codes(
            lint, "def f(stream):\n    return stream._rng.getrandbits(30)\n",
            tmp_path,
        ) == ["D004"]
        assert self._backend_codes(
            lint, "def f(stream):\n    draw = stream._random\n", tmp_path
        ) == ["D004"]

    def test_rng_pragma_suppresses_d004(self, tmp_path):
        lint = self._lint()
        source = (
            "def f(stream):\n"
            "    draw = stream._random  # lint: rng-mirrored\n"
            "    bits = stream._rng.getrandbits  # lint: rng-mirrored\n"
        )
        assert self._backend_codes(lint, source, tmp_path) == []

    def test_d004_only_applies_inside_backends(self, tmp_path):
        lint = self._lint()
        outside = "def f(stream):\n    return stream._rng.getrandbits(30)\n"
        assert self._codes(lint, outside, tmp_path) == []

    def test_flags_mutable_default_arguments(self, tmp_path):
        lint = self._lint()
        assert self._codes(
            lint, "def f(xs=[]):\n    return xs\n", tmp_path
        ) == ["D005"]
        assert self._codes(
            lint, "def f(*, table=dict()):\n    return table\n", tmp_path
        ) == ["D005"]
        assert self._codes(
            lint, "g = lambda seen=set(): seen\n", tmp_path
        ) == ["D005"]

    def test_allows_immutable_defaults(self, tmp_path):
        lint = self._lint()
        source = (
            "def f(xs=(), name='x', n=0, table=None):\n"
            "    return xs, name, n, table\n"
        )
        assert self._codes(lint, source, tmp_path) == []


class TestGenerateExperimentsScript:
    def test_experiment_list_importable(self):
        sys.path.insert(0, "scripts")
        try:
            import generate_experiments_md as gen
        finally:
            sys.path.pop(0)
        ids = [eid for eid, _claim, _run in gen.EXPERIMENTS]
        assert len(ids) == len(set(ids))
        assert "fig12" in ids and "headline" in ids
        for _eid, claim, runner in gen.EXPERIMENTS:
            assert callable(runner)
            assert claim
