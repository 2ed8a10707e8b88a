"""Shared fixtures and helpers for the test suite.

Everything here is exact-equality friendly: max-min evaluation never
invents float values, so no test in this suite uses a tolerance.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from typing import Iterable, Iterator

import pytest

from fuzzchain.algebra import FtfExpr, Term, Var, _atom_key
from fuzzchain.checks import random_assignment, random_registry
from fuzzchain.cli import main as cli_main
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import (
    FIXTURE_ASSIGNMENT,
    FuzzySystem,
    SystemRegistry,
    builtin_fixtures,
    format_registry,
    parse_registry,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

# One golden file per CLI subcommand (a few get a second variant where the
# flag changes the output shape).  Determinism tests replay every entry and
# insist on byte-identical stdout.
GOLDEN_COMMANDS: dict[str, tuple[str, ...]] = {
    "ftf_psi1_paper.txt": ("ftf", "--system", "psi1", "--mode", "paper"),
    "ftf_phi_raw.txt": ("ftf", "--system", "phi"),
    "matrix_psi1.txt": ("matrix", "--system", "psi1"),
    "matrix_psi1_resolved.txt": ("matrix", "--system", "psi1", "--resolve"),
    "eval_phi.txt": ("eval", "--system", "phi"),
    "eval_phi_json.txt": ("eval", "--system", "phi", "--json"),
    "eval_psi1_rec_budget0.txt": ("eval", "--system", "psi1_rec", "--budget", "0"),
    "closure_psi1.txt": ("closure", "--system", "psi1"),
    "trace_psi1_rec.txt": ("trace",),
    "expand_psi1_rec.txt": ("expand",),
    "expand_rec0.txt": ("expand", "--rec-count", "0"),
    "power_x1_x2_sq.txt": ("power", "x1 + x2", "2"),
    "check_seed42.txt": ("check", "--seed", "42", "--trials", "40"),
    "fixtures.txt": ("fixtures",),
    "fixtures_values.txt": ("fixtures", "--values"),
    "validate.txt": ("validate",),
}

# psi1 with the C-D edge swapped for a budget-1 call to psi1 itself.  Under
# DEEP_ASSIGNMENT the call-free chains are weak (0.2) and the call chain is
# strong (0.8), so the budget staircase of psi1v is actually visible:
# 0.2 at budgets 0 and 1, 0.8 from budget 2 on.
VARIANT_TEXT = """
system psi1v {
  terminals A -> B
  edge B C w
  edge A D x
  edge B D z
  edge A C y
  edge C D call psi1 1
}
"""

# Strong x/w, weak y/z: nested call chains dominate or die visibly.
DEEP_ASSIGNMENT = {"x": 0.9, "y": 0.2, "w": 0.8, "z": 0.1}


def invoke_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    except SystemExit as exc:  # argparse usage failures exit directly
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def read_golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def grid_system(k: int) -> FuzzySystem:
    """A k x k grid, terminals at opposite corners, one variable per edge."""
    edges = []
    for r in range(k):
        for c in range(k):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < k and c2 < k:
                    edges.append((f"G{r}_{c}", f"G{r2}_{c2}", Var(f"e{len(edges)}")))
    return FuzzySystem.build("grid", "G0_0", f"G{k - 1}_{k - 1}", edges)


def reference_canonicalize(expr: FtfExpr, simplify: bool = False) -> FtfExpr:
    """``canonicalize`` by its definition: every term's canonical form,
    deduplicated and sorted, then each strict superset of another dropped."""
    terms = sorted({t.canonical() for t in expr.terms}, key=lambda t: tuple(map(_atom_key, t.atoms)))
    if simplify:
        sets = [frozenset(t.atoms) for t in terms]
        terms = [t for t, mine in zip(terms, sets) if not any(other < mine for other in sets)]
    return FtfExpr(tuple(terms))


def expr_concat(a: FtfExpr, b: FtfExpr) -> FtfExpr:
    """Pairwise term concatenation; evaluates to min of the operands.

    Term order is the cross product in operand order, so raw renderings
    stay predictable.
    """
    return FtfExpr(tuple(Term(s.atoms + t.atoms) for s in a.terms for t in b.terms))


def multinomial_coefficient(k: int, parts: Iterable[int]) -> int:
    """Exact k! / (n1! * ... * nm!) for a composition of k."""
    parts = tuple(parts)
    if any(not isinstance(n, int) or n < 0 for n in parts):
        raise ValueError(f"invalid composition: negative or non-integer part in {parts!r}")
    if sum(parts) != k:
        raise ValueError(f"invalid composition: parts {parts!r} do not sum to {k}")
    coefficient = math.factorial(k)
    for n in parts:
        coefficient //= math.factorial(n)
    return coefficient


def lengthen_some_names(
    rng: SplitMix64, registry: SystemRegistry, assignment: dict[str, float]
) -> tuple[SystemRegistry, dict[str, float]]:
    """``registry`` and ``assignment`` with about a third of the variables
    renamed ``v`` -> ``vv``, so paper texts mix juxtaposed and starred terms."""
    renamed = {v: v * 2 if rng.chance(1, 3) else v for v in sorted(assignment)}
    out = SystemRegistry()
    for system in registry:
        edges = [
            (e.u, e.v, Var(renamed[e.atom.name]) if isinstance(e.atom, Var) else e.atom)
            for e in system.edges
        ]
        out.add(FuzzySystem.build(system.name, system.input_terminal, system.output_terminal, edges))
    return out, {renamed[v]: grade for v, grade in assignment.items()}


def lattice_relations(route, assignment: dict[str, float], probes: Iterable[str]) -> int:
    """Check the exact relations every max-min answer ``route(assignment)``
    keeps, by ``repr``, with no oracle; give how many of ``probes`` move it.

    The answer is ``0.0`` or one of the bindings (selection), and squaring
    every binding squares it (an increasing map commutes with max and min).
    For each probed binding x, raising x to 1.0 never lowers the answer,
    and the median law p(a) == max(p(a[x:=0]), min(a[x], p(a[x:=1]))) holds.
    """
    got = route(assignment)
    assert repr(got) in {"0.0", *(repr(v + 0.0) for v in assignment.values())}
    squared = route({var: v * v for var, v in assignment.items()})
    assert repr(squared) == repr(got * got)
    moved = 0
    for x in probes:
        low, high = (route({**assignment, x: v}) for v in (0.0, 1.0))
        assert high >= got, x
        assert repr(got) == repr(max(low, min(assignment[x] + 0.0, high))), x
        moved += low != high
    return moved


def budget_registries() -> Iterator[tuple[SystemRegistry, str, dict[str, float], set[str]]]:
    """200 seeded registries of 3 systems with calls at counts up to 4: each
    with its last system's name, an assignment with about a fifth of its
    bindings ``0.0`` or ``-0.0``, and up to two variables it reads, to probe."""
    rng = SplitMix64(2024)
    for _ in range(200):
        registry = random_registry(rng, n_systems=3, max_vertices=6, max_count=4, call_chance=(1, 2))
        assignment = random_assignment(rng)
        for var in assignment:
            if rng.chance(1, 5):
                assignment[var] = 0.0 if rng.chance(1, 2) else -0.0
        read = sorted({e.atom.name for s in registry for e in s.edges if isinstance(e.atom, Var)})
        probes = {rng.choice(read), rng.choice(read)} if read else set()
        yield registry, registry.names()[-1], assignment, probes


@pytest.fixture
def registry():
    return builtin_fixtures()


@pytest.fixture
def fixture_assignment():
    return dict(FIXTURE_ASSIGNMENT)


@pytest.fixture
def deep_assignment():
    return dict(DEEP_ASSIGNMENT)


@pytest.fixture
def variant_registry():
    """Built-ins plus psi1v (see VARIANT_TEXT), rebuilt through the parser."""
    return parse_registry(format_registry(builtin_fixtures()) + VARIANT_TEXT)


@pytest.fixture
def run_cli():
    return invoke_cli
