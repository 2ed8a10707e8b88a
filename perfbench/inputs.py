"""Seeded input builders and independent reference values for the benchmark.

Everything here runs during set-up, before the timed loop, and none of it
is traced.  Random structure comes from :class:`fuzzchain.rng.SplitMix64`
and the public ``fuzzchain.checks.random_*`` generators, so one seed always
gives the same inputs.  The reference values are computed without the
production evaluator: :func:`widest_path` is a heap-based max-min Dijkstra,
and the symbolic counts come from closed forms.
"""

from __future__ import annotations

import heapq
import string
from typing import Callable, Mapping, Sequence

from fuzzchain.algebra import Atom, Call, FtfExpr, Term, Var
from fuzzchain.checks import random_callfree_system
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import FuzzySystem, SystemRegistry

VAR_POOL = tuple(string.ascii_lowercase[:12])

# Fixture variables of psi1 / psi1_rec.
FIXTURE_VARS = ("x", "y", "w", "z", "xbar")

# Simple corner-to-corner paths in a k x k grid graph (OEIS A007764).
GRID_CHAINS = {3: 12, 4: 184, 5: 8512}


def shuffled(rng: SplitMix64, items: Sequence) -> list:
    """Fisher-Yates shuffle drawn from ``rng``."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def assignment_for(rng: SplitMix64, names: Sequence[str]) -> dict[str, float]:
    """Grades on a 1000-point grid, so that ties between paths are rare."""
    return {name: rng.grade(1000) for name in names}


def grid_system(k: int, name: str, label: Callable[[int], str]) -> FuzzySystem:
    """k x k grid graph, terminals at opposite corners; edge i is ``label(i)``."""
    edges: list[tuple[str, str, Atom]] = []

    def vertex(r: int, c: int) -> str:
        return f"V{r}_{c}"

    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((vertex(r, c), vertex(r, c + 1), Var(label(len(edges)))))
            if r + 1 < k:
                edges.append((vertex(r, c), vertex(r + 1, c), Var(label(len(edges)))))
    return FuzzySystem.build(name, vertex(0, 0), vertex(k - 1, k - 1), edges)


def grid_edge_count(k: int) -> int:
    return 2 * k * (k - 1)


def registry_of(*systems: FuzzySystem) -> SystemRegistry:
    registry = SystemRegistry()
    for system in systems:
        registry.add(system)
    return registry


def self_only_system(rng: SplitMix64, name: str, count: int) -> FuzzySystem:
    """A random call-free system whose input-side spine edge becomes a
    self-call of the given count, so every live evaluation recurses."""
    base = random_callfree_system(rng, name, max_vertices=6, max_edges=10)
    edges: list[tuple[str, str, Atom]] = []
    for i, edge in enumerate(base.edges):
        if i == 0 or rng.chance(1, 4):
            edges.append((edge.u, edge.v, Call(name, count)))
        else:
            edges.append((edge.u, edge.v, edge.atom))
    return FuzzySystem.build(name, base.input_terminal, base.output_terminal, edges)


def sparse_system(
    rng: SplitMix64, n: int, name: str, callees: Sequence[str], calls: int
) -> tuple[FuzzySystem, list[str]]:
    """Connected random graph on n vertices with about 3 edges per vertex.

    A random spanning tree keeps the terminals connected; ``calls`` of the
    edges call one of ``callees`` with a count in 0..3.  Returns the
    system and its variable names.
    """
    vertices = [f"N{i}" for i in range(n)]
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def add(i: int, j: int) -> None:
        key = (min(i, j), max(i, j))
        if i != j and key not in seen:
            seen.add(key)
            pairs.append((i, j))

    order = shuffled(rng, range(n))
    for pos in range(1, n):
        add(order[pos], order[rng.below(pos)])
    while len(pairs) < (3 * n) // 2:
        add(rng.below(n), rng.below(n))
    call_slots = set(shuffled(rng, range(len(pairs)))[:calls])
    edges: list[tuple[str, str, Atom]] = []
    names = []
    for idx, (i, j) in enumerate(pairs):
        if idx in call_slots:
            atom: Atom = Call(rng.choice(callees), rng.below(4))
        else:
            names.append(f"e{idx}")
            atom = Var(names[-1])
        edges.append((vertices[i], vertices[j], atom))
    return FuzzySystem.build(name, vertices[0], vertices[-1], edges), names


def random_expr(rng: SplitMix64, terms: int, max_atoms: int, calls: bool) -> FtfExpr:
    """Random sum of products over VAR_POOL, optionally with call atoms."""
    out = []
    for _ in range(terms):
        atoms: list[Atom] = []
        for _ in range(rng.randint(1, max_atoms)):
            if calls and rng.chance(1, 6):
                atoms.append(Call(rng.choice(("psi1", "phi", "g")), rng.below(4)))
            else:
                atoms.append(Var(rng.choice(VAR_POOL)))
        out.append(Term(tuple(atoms)))
    return FtfExpr(tuple(out))


# --- references ------------------------------------------------------------


def widest_path(system: FuzzySystem, edge_value: Callable[[Atom], float]) -> float:
    """Best max-min input->output value, by a heap-based Dijkstra.

    Max-min is a bottleneck semiring, so settling vertices in order of
    decreasing width is exact.  ``edge_value`` grades each edge atom; a
    call edge that can never run should grade 0.
    """
    adjacency: dict[str, list[tuple[str, float]]] = {v: [] for v in system.vertices}
    for edge in system.edges:
        value = edge_value(edge.atom)
        adjacency[edge.u].append((edge.v, value))
        adjacency[edge.v].append((edge.u, value))
    goal = system.output_terminal
    width = {system.input_terminal: 1.0}
    heap = [(-1.0, system.input_terminal)]
    settled: set[str] = set()
    while heap:
        neg, here = heapq.heappop(heap)
        if here in settled:
            continue
        if here == goal:
            return -neg
        settled.add(here)
        for there, value in adjacency[here]:
            through = min(-neg, value)
            if through > width.get(there, 0.0):
                width[there] = through
                heapq.heappush(heap, (-through, there))
    return 0.0


def var_grades(assignment: Mapping[str, float]) -> Callable[[Atom], float]:
    """Edge grades for a call-free view: variables bound, calls dead (0)."""

    def grade(atom: Atom) -> float:
        return assignment[atom.name] if isinstance(atom, Var) else 0.0

    return grade


def one_level_grades(
    registry: SystemRegistry, assignment: Mapping[str, float]
) -> Callable[[Atom], float]:
    """Edge grades of a system whose callees are call-free: a live call
    (count >= 1) grades as its callee's widest path, a dead one as 0."""
    plain = var_grades(assignment)

    def grade(atom: Atom) -> float:
        if isinstance(atom, Var):
            return assignment[atom.name]
        return widest_path(registry[atom.target], plain) if atom.count >= 1 else 0.0

    return grade


def budget0_value(system: FuzzySystem, assignment: Mapping[str, float]) -> float:
    """Value over call-free chains only.  A self-only system equals it at
    every budget (the budget-laws suite proves the collapse)."""
    return widest_path(system, var_grades(assignment))


def psi1_rec_terms(count: int) -> int:
    """Flattened expansion size of psi1_rec at the top level.

    Two call-free chains plus two chains through the self-call, whose
    callee at budget b has T(b) = 2 + 2 T(b - 1) terms, T(1) = 2.
    """
    return 2 ** (count + 2) - 2


def psi1_rec_trace_events(count: int) -> int:
    """Trace length of psi1_rec at the top level (count >= 2).

    A node emits ENTER/EXIT and two call-free BRANCH lines; each of its
    two live call chains adds PUSH, POP, one sub-line per callee branch,
    a summary, and the callee's own events.  Calls die at budget 1.
    """
    events, branches = 4, 2  # budget 1: ENTER, two BRANCH, EXIT
    for _ in range(2, count + 1):
        events, branches = 4 + 2 * (3 + branches + events), 4
    return 4 + 2 * (3 + branches + events)
