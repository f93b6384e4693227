#!/usr/bin/env python3
"""Determinism lint: reject nondeterministic randomness and unhashable job specs.

The simulator's reproducibility rests on two conventions:

1. All randomness flows through explicitly seeded generators —
   ``random.Random(seed)`` instances or ``numpy.random.default_rng(seed)``.
   Module-level draws (``random.random()``, ``np.random.rand()``, ...) pull
   from ambient global state and silently break run-to-run determinism,
   so this lint rejects them (rule D001).

2. Cache keys in :mod:`repro.sim.engine` are derived from dataclass field
   values, so the spec classes (``SimJob``, ``ProbeSpec`` and its
   subclasses) must be ``frozen=True`` — a mutable spec could change
   between hashing and execution and poison the result cache (rule D002).

3. Simulation run loops live in :mod:`repro.sim.backends`, where the
   equivalence suite proves them bit-identical to the reference loop.  A
   function elsewhere that both walks ``workload.trace(...)`` *and*
   charges cycles through ``execute_block`` is a forked run loop that the
   suite cannot see, so this lint rejects it (rule D003).  Read-only
   trace scans (Fig. 1's vector-intensity shards, Fig. 15's vector
   prevalence, the drowsy-MLC baseline's cache walk) don't charge cycles
   through ``execute_block`` and stay legal.

4. Inside :mod:`repro.sim.backends`, randomness is pre-materialized by
   :mod:`repro.sim.backends.rngkit` plans that replicate the reference
   loop's draw order exactly.  A backend reaching directly into a
   component's ``random.Random`` (``stream._rng.getrandbits(...)``, a
   bound ``._random`` method) draws outside the plan and silently
   desynchronizes the mirrored streams, so this lint rejects it (rule
   D004) unless the line carries a ``# lint: rng-mirrored`` pragma
   asserting the site replicates the scalar call order.  ``rngkit.py``
   itself is exempt — it is the mirror.

5. Mutable default arguments (``def f(x=[])``) alias one object across
   calls; simulator state leaking through one breaks run-to-run
   determinism in ways no seed controls.  Dataclasses already raise on
   mutable field defaults, so this lint covers plain function and lambda
   parameter defaults: list/dict/set displays and bare ``list()`` /
   ``dict()`` / ``set()`` calls are rejected (rule D005).

Usage:
    python scripts/lint_determinism.py [paths ...]

Defaults to scanning ``src/repro`` and ``scripts``.  Exits non-zero if any
violation is found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

DEFAULT_PATHS = ("src/repro", "scripts")

#: ``random`` module attributes that draw from the global (unseeded) state.
#: ``Random``/``SystemRandom`` construct independent generators and ``seed``
#: is occasionally legitimate in scripts, so only the draw functions count.
_RANDOM_DRAWS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Spec classes whose instances feed the engine's content-hash cache.
_FROZEN_REQUIRED = frozenset({"SimJob", "ProbeSpec"})

#: The one package allowed to implement simulation run loops (rule D003).
_BACKENDS_PACKAGE = "repro/sim/backends"

#: Pragma suppressing D004 on a line that provably mirrors the reference
#: loop's RNG call order (same method, same sequence of draws).
_RNG_PRAGMA = "# lint: rng-mirrored"

#: Default-argument constructors that build a fresh-looking but shared
#: mutable object (rule D005); literals are caught structurally.
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set"})


class Violation(Tuple[str, int, str, str]):
    __slots__ = ()

    def render(self) -> str:
        path, lineno, code, message = self
        return f"{path}:{lineno}: {code} {message}"


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name for an attribute chain (``np.random.rand``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _Linter(ast.NodeVisitor):
    def __init__(
        self, path: str, tree: ast.Module, lines: Tuple[str, ...] = ()
    ) -> None:
        self.path = path
        self.lines = lines
        norm = path.replace("\\", "/")
        self.in_backends = (
            _BACKENDS_PACKAGE in norm and not norm.endswith("/rngkit.py")
        )
        self.violations: List[Violation] = []
        # Names the module binds to the random / numpy.random modules.
        self.random_aliases = {"random"}
        self.np_random_aliases = {"numpy.random"}
        self.numpy_aliases = {"numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "random":
                        self.random_aliases.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_aliases.add(bound)
                    elif alias.name == "numpy.random":
                        self.np_random_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        self.np_random_aliases.add(alias.asname or "random")
        self.np_random_aliases |= {f"{np}.random" for np in self.numpy_aliases}

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Violation((self.path, node.lineno, code, message))
        )

    def _has_rng_pragma(self, node: ast.AST) -> bool:
        lineno = getattr(node, "lineno", 0)
        if 0 < lineno <= len(self.lines):
            return _RNG_PRAGMA in self.lines[lineno - 1]
        return False

    # -- D004: backend RNG draws must go through rngkit mirrors --------

    def _rng_draw_attr(self, node: ast.AST) -> str:
        """Dotted name if ``node`` reaches directly into a Random, else ''.

        Two shapes count: a bound ``._random`` method (AddressStream's
        cached ``Random.random``) and a draw method reached through a
        ``._rng`` attribute chain (``stream._rng.getrandbits``).
        """
        if not isinstance(node, ast.Attribute):
            return ""
        if node.attr == "_random":
            return _dotted(node) or "._random"
        if node.attr in _RANDOM_DRAWS:
            inner = node.value
            while isinstance(inner, ast.Attribute):
                if inner.attr == "_rng":
                    return _dotted(node) or f"._rng.{node.attr}"
                inner = inner.value
        return ""

    def _check_rng_access(self, node: ast.AST) -> None:
        if not self.in_backends:
            return
        name = self._rng_draw_attr(node)
        if name and not self._has_rng_pragma(node):
            self._flag(
                node,
                "D004",
                f"backend reaches directly into a random.Random ('{name}') "
                "outside the rngkit mirror; route the draw through a "
                "rngkit plan, or mark a provably order-preserving site "
                f"with '{_RNG_PRAGMA}'",
            )

    # -- D005: mutable default arguments -------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS
                and not default.args
                and not default.keywords
            )
            if mutable:
                name = getattr(node, "name", "<lambda>")
                self._flag(
                    default,
                    "D005",
                    f"mutable default argument in '{name}' is shared "
                    "across calls and can leak simulator state between "
                    "runs; default to None and construct inside the body",
                )

    # -- D001: unseeded randomness ------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in _RANDOM_DRAWS:
                    self._flag(
                        node,
                        "D001",
                        f"'from random import {alias.name}' draws from the "
                        "global RNG; use a seeded random.Random instance",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name:
            head, _, tail = name.rpartition(".")
            if head in self.random_aliases and tail in _RANDOM_DRAWS:
                self._flag(
                    node,
                    "D001",
                    f"module-level '{name}()' is unseeded; draw from a "
                    "random.Random(seed) instance instead",
                )
            elif head in self.np_random_aliases and tail != "default_rng":
                self._flag(
                    node,
                    "D001",
                    f"'{name}()' uses numpy's global RNG; use "
                    "numpy.random.default_rng(seed)",
                )
        self._check_rng_access(node.func)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Binding a draw method (``rng = stream._rng.getrandbits``) is the
        # hoisted spelling of a direct draw; D004 applies equally.
        self._check_rng_access(node.value)
        self.generic_visit(node)

    # -- D003: run loops belong in repro.sim.backends -----------------

    def _check_run_loop(self, node) -> None:
        if _BACKENDS_PACKAGE in self.path.replace("\\", "/"):
            return
        walks_trace = False
        charges_cycles = False
        for child in ast.walk(node):
            if child is not node and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue  # nested defs are visited on their own
            if (
                isinstance(child, ast.For)
                and isinstance(child.iter, ast.Call)
                and isinstance(child.iter.func, ast.Attribute)
                and child.iter.func.attr == "trace"
            ):
                walks_trace = True
            elif isinstance(child, ast.Call):
                name = _dotted(child.func)
                if name.rpartition(".")[2] == "execute_block":
                    charges_cycles = True
        if walks_trace and charges_cycles:
            self._flag(
                node,
                "D003",
                f"function '{node.name}' walks workload.trace() and charges "
                "cycles via execute_block — a simulation run loop; run "
                "loops must live in repro.sim.backends where the "
                "equivalence suite verifies them",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_run_loop(node)
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_run_loop(node)
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- D002: engine spec dataclasses must be frozen -----------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        must_freeze = node.name in _FROZEN_REQUIRED or any(
            base in _FROZEN_REQUIRED
            for base in (_dotted(b).rpartition(".")[2] for b in node.bases)
        )
        if must_freeze:
            decorated = False
            frozen = False
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if _dotted(target).rpartition(".")[2] != "dataclass":
                    continue
                decorated = True
                if isinstance(deco, ast.Call):
                    frozen = any(
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in deco.keywords
                    )
            if decorated and not frozen:
                self._flag(
                    node,
                    "D002",
                    f"dataclass '{node.name}' feeds the engine result cache "
                    "and must be declared @dataclass(frozen=True)",
                )
        self.generic_visit(node)


def iter_sources(paths: List[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.is_file() and path.suffix == ".py":
            yield path
        else:
            # A typo'd path scanning zero files must not pass silently.
            raise SystemExit(f"determinism lint: no such file or directory: {raw}")


def lint_file(path: Path) -> List[Violation]:
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    linter = _Linter(str(path), tree, tuple(text.splitlines()))
    linter.visit(tree)
    return linter.violations


def main(argv: List[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    paths = args or list(DEFAULT_PATHS)
    violations: List[Violation] = []
    n_files = 0
    for source in iter_sources(paths):
        n_files += 1
        violations.extend(lint_file(source))
    for violation in violations:
        print(violation.render())
    status = "FAIL" if violations else "ok"
    print(
        f"determinism lint: {n_files} file(s), "
        f"{len(violations)} violation(s) [{status}]"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
