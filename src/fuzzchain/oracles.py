"""Slow, obviously-correct reference implementations for differential checks.

Everything here is written straight from the definitions, with its own
path walking and its own interpreter loop — deliberately sharing nothing
with the production engines beyond the scalar max/min and the parsed
data model.  Only the check suites and the tests import this module.

The max-min product (:func:`maxmin_matmul`), its powers
(:func:`matrix_power`) and the ascending-pivot sweep
(:func:`warshall_steps`) are the matrix references: O(n³) per product
or sweep, against which the ``closure-power-agree`` and
``pivot-invariant`` suites check the Kruskal-pass closure and each
other.  The path, unrolling and power oracles run in exponential time,
so their instance sizes are capped (the constants below); they exist
only to cross-examine the fast code on small cases.  The α-cut oracle
(:func:`oracle_cut_eval`) walks no chain and has no cap: it checks the
routes on systems of hundreds of vertices.  The antichain closure
(:func:`oracle_symbolic_closure`) reads a system's chains off its closed
symbolic connection matrix, with no chain walked.
"""

from __future__ import annotations

from typing import Iterator

from .algebra import Atom, Call, FtfExpr, Var, snorm_max, tnorm_min
from .errors import BindingError
from .systems import FuzzySystem, SystemRegistry

__all__ = [
    "maxmin_matmul",
    "matrix_power",
    "warshall_steps",
    "oracle_path_enum",
    "oracle_unroll_eval",
    "oracle_cut_eval",
    "oracle_symbolic_closure",
    "oracle_power_eval",
]

Matrix = list[list[float]]

# Size caps for oracle inputs; exceeding one is a usage bug.
MAX_VERTICES = 8
MAX_POWER_K = 3
MAX_EXPR_TERMS = 4


def _check_square(m: Matrix, what: str = "matrix") -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"{what} is not square")
    return n


def maxmin_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product in the max-min algebra:
    ``out[i][j]`` is the max over k of ``min(a[i][k], b[k][j])``, from 0."""
    n = _check_square(a)
    if _check_square(b) != n:
        raise ValueError(f"dimension mismatch: {n} vs {len(b)}")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = 0.0
            for k in range(n):
                cell = snorm_max(cell, tnorm_min(a[i][k], b[k][j]))
            row.append(cell)
        out.append(row)
    return out


def matrix_power(m: Matrix, p: int) -> Matrix:
    """p-fold max-min product of ``m`` with itself (p >= 1)."""
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"matrix power needs an integer p >= 1, got {p!r}")
    _check_square(m)
    out = [row[:] for row in m]
    for _ in range(p - 1):
        out = maxmin_matmul(out, m)
    return out


def warshall_steps(m: Matrix) -> Iterator[tuple[int, Matrix]]:
    """Run the closure relaxation, yielding (pivot, snapshot) after each pivot.

    At pivot k every cell becomes ``max(w[i][j], min(w[i][k], w[k][j]))``,
    in place.  Snapshots are copies, so callers may keep or mutate them
    freely.
    """
    n = _check_square(m)
    w = [row[:] for row in m]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                w[i][j] = snorm_max(w[i][j], tnorm_min(w[i][k], w[k][j]))
        yield k, [row[:] for row in w]


def oracle_path_enum(
    vertices: list[str] | tuple[str, ...],
    edge_value: dict[tuple[str, str], float],
    start: str,
    goal: str,
    allowed_intermediates: set[str] | None = None,
) -> float:
    """Max over simple start->goal paths of the min edge value, by brute force.

    ``edge_value`` maps ordered vertex pairs to grades; missing pairs
    count as 0.  ``allowed_intermediates`` optionally restricts which
    vertices may appear strictly inside a path.  ``start == goal`` is
    the empty path with value 1.
    """
    if len(vertices) > MAX_VERTICES:
        raise ValueError(f"oracle_path_enum capped at {MAX_VERTICES} vertices")
    if start == goal:
        return 1.0

    best = 0.0
    visited = {start}

    def step(u: str, v: str) -> float:
        return edge_value.get((u, v), 0.0)

    def walk(here: str, value: float) -> None:
        nonlocal best
        direct = tnorm_min(value, step(here, goal))
        best = snorm_max(best, direct)
        for nxt in vertices:
            if nxt in visited or nxt == goal:
                continue
            if allowed_intermediates is not None and nxt not in allowed_intermediates:
                continue
            via = tnorm_min(value, step(here, nxt))
            if via <= best:
                continue  # min never recovers; this branch cannot win
            visited.add(nxt)
            walk(nxt, via)
            visited.remove(nxt)

    walk(start, 1.0)
    return best


def _adjacency(system: FuzzySystem) -> dict[str, list[tuple[str, Atom]]]:
    """Each vertex's (neighbor, atom) pairs, in edge-declaration order."""
    adjacency: dict[str, list[tuple[str, Atom]]] = {v: [] for v in system.vertices}
    for edge in system.edges:
        adjacency[edge.u].append((edge.v, edge.atom))
        adjacency[edge.v].append((edge.u, edge.atom))
    return adjacency


def oracle_unroll_eval(
    registry: SystemRegistry,
    name: str,
    assignment: dict[str, float],
    budget: int | None = None,
) -> float:
    """Definitional interpreter for a system's transmission grade.

    ``budget`` is the remaining call allowance while walking the named
    system's body: an edge calling tau with declared count m runs the
    callee with allowance min(m, budget - 1) and a chain dies when that
    allowance is not positive.  ``budget=None`` is the top level, where
    every call runs at its full declared count.  No memoization of
    grades, no stack machinery — just the recursion.  Each system is
    read through its record fields alone: its (neighbor, atom) lists are
    built from ``edges`` the first time this call meets it.
    """
    adjacencies: dict[str, dict[str, list[tuple[str, Atom]]]] = {}

    def unroll(name: str, budget: int | None) -> float:
        system = registry[name]
        if len(system.vertices) > MAX_VERTICES:
            raise ValueError(f"oracle_unroll_eval capped at {MAX_VERTICES} vertices")
        if name not in adjacencies:
            adjacencies[name] = _adjacency(system)
        adjacency = adjacencies[name]
        goal = system.output_terminal
        best = 0.0

        def chain_value(here: str, visited: set[str], value: float) -> None:
            nonlocal best
            if here == goal:
                best = snorm_max(best, value)
                return
            for nxt, atom in adjacency[here]:
                if nxt in visited:
                    continue
                if isinstance(atom, Var):
                    try:
                        grade = assignment[atom.name]
                    except KeyError:
                        raise BindingError(f"missing binding for variable {atom.name!r}") from None
                else:
                    assert isinstance(atom, Call)
                    allowance = atom.count if budget is None else min(atom.count, budget - 1)
                    if allowance < 1:
                        continue  # exhausted call: the chain cannot be completed
                    grade = unroll(atom.target, allowance)
                chain_value(nxt, visited | {nxt}, tnorm_min(value, grade))

        start = system.input_terminal
        chain_value(start, {start}, 1.0)
        return best

    return unroll(name, budget)


def oracle_cut_eval(
    registry: SystemRegistry,
    name: str,
    assignment: dict[str, float],
    budget: int | None = None,
) -> float:
    """A system's transmission grade by α-cuts, with no size cap.

    A max-min answer is the largest grade α such that the edges graded at
    least α join the input terminal to the output terminal: the α-cut
    view of a fuzzy relation (Zadeh 1971, "Similarity relations and fuzzy
    orderings"; Rosenfeld 1975, "Fuzzy graphs").  With calls, fix α: a
    call edge with declared count m is in the cut at budget b when its
    callee reaches at α with allowance min(m, b - 1), and a call whose
    allowance is not positive never is.  ``budget=None`` is the top
    level, where a call's allowance is m.

    For one α, a table of boolean budget layers answers every system
    reached from ``name``: layer b holds whether each reaches at budget b,
    by plain reachability over its cut, with its calls read in the
    layers below.  The table is filled bottom-up until a layer past 1
    repeats, after which every layer is that one.  α is binary-searched
    over the distinct positive bindings, as Punnen 1991 ("A linear time
    algorithm for the maximum capacity path problem") searches
    thresholds, and ``0.0`` answers when none reaches.  Each system is
    read through ``edges``, ``vertices`` and its terminals alone.
    """
    systems: dict[str, FuzzySystem] = {}
    pending = [name]
    while pending:
        target = pending.pop()
        if target not in systems:
            systems[target] = registry[target]
            pending.extend(e.atom.target for e in systems[target].edges if isinstance(e.atom, Call))
    grades = set()
    for system in systems.values():
        for edge in system.edges:
            if isinstance(edge.atom, Var):
                try:
                    grades.add(float(assignment[edge.atom.name]))
                except KeyError:
                    raise BindingError(f"missing binding for variable {edge.atom.name!r}") from None

    def reaches(
        system: FuzzySystem, alpha: float, at: int | None, layers: list[dict[str, bool]]
    ) -> bool:
        """Whether the α-cut of ``system`` at budget ``at`` joins its terminals."""
        joined: dict[str, list[str]] = {v: [] for v in system.vertices}
        for edge in system.edges:
            atom = edge.atom
            if isinstance(atom, Var):
                inside = assignment[atom.name] >= alpha
            else:
                allowance = atom.count if at is None else min(atom.count, at - 1)
                inside = allowance >= 1 and layers[min(allowance, len(layers) - 1)][atom.target]
            if inside:
                joined[edge.u].append(edge.v)
                joined[edge.v].append(edge.u)
        seen, stack = {system.input_terminal}, [system.input_terminal]
        while stack:
            for nxt in joined[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return system.output_terminal in seen

    def cut_reaches(alpha: float) -> bool:
        layers: list[dict[str, bool]] = []
        while len(layers) < 3 or layers[-1] != layers[-2]:
            layers.append({s: reaches(systems[s], alpha, len(layers), layers) for s in systems})
        return reaches(systems[name], alpha, budget, layers)

    candidates = sorted(grade for grade in grades if grade > 0.0)
    lo, hi, best = 0, len(candidates), 0.0  # every grade below lo reaches, none from hi
    while lo < hi:
        mid = (lo + hi) // 2
        if cut_reaches(candidates[mid]):
            lo, best = mid + 1, candidates[mid]
        else:
            hi = mid
    return best


def _minimal(sets: set[frozenset[Atom]]) -> set[frozenset[Atom]]:
    """The sets of ``sets`` that hold no other one: an antichain."""
    return {s for s in sets if not any(t < s for t in sets)}


def oracle_symbolic_closure(system: FuzzySystem) -> set[frozenset[Atom]]:
    """The minimal atom sets of a system's chains, by closing its symbolic
    connection matrix.

    A cell holds an antichain of atom sets, no set holding another: the
    free distributive lattice over the atoms, where a chain is the min of
    its atoms and a cell the max of its chains.  A sum is the union of two
    antichains and a product the pairwise unions of their sets, each cut
    back to its minimal sets; the empty antichain is 0 and ``{∅}`` is 1,
    the diagonal.  Every element is idempotent and 1 absorbs, so the
    Warshall–Kleene elimination (Carré 1971, "An algebra for network
    routing problems"; Backhouse & Carré 1975, "Regular algebra applied
    to path-finding problems") needs no star: at pivot k, each cell (i, j)
    gains cell (i, k) times cell (k, j).  A call atom is one more opaque
    atom.  The terminal cell then holds the minimal atom sets of the walks
    joining the terminals, which are those of its simple chains.  The
    system is read through ``edges``, ``vertices`` and its terminals alone.
    """
    vertices = system.vertices
    if len(vertices) > MAX_VERTICES:
        raise ValueError(f"oracle_symbolic_closure capped at {MAX_VERTICES} vertices")
    cells = {u: {v: {frozenset()} if u == v else set() for v in vertices} for u in vertices}
    for edge in system.edges:
        cells[edge.u][edge.v] = cells[edge.v][edge.u] = {frozenset((edge.atom,))}
    for k in vertices:
        for i in vertices:
            into = cells[i][k]
            for j in vertices:
                via = {s | t for s in into for t in cells[k][j]}
                cells[i][j] = _minimal(cells[i][j] | via)
    return cells[system.input_terminal][system.output_terminal]


def oracle_power_eval(expr: FtfExpr, k: int, assignment: dict[str, float]) -> float:
    """Value of the k-th power of a call-free expression, composition by
    composition.

    Enumerates every way to pick k terms (with repetition) out of the
    expression, takes the min of the chosen term values, and keeps the
    max.  Agrees with evaluating the expression once, since min and max
    are idempotent.
    """
    if not (1 <= k <= MAX_POWER_K):
        raise ValueError(f"oracle_power_eval capped at k in 1..{MAX_POWER_K}")
    if len(expr.terms) > MAX_EXPR_TERMS:
        raise ValueError(f"oracle_power_eval capped at {MAX_EXPR_TERMS} terms")

    term_values = []
    for term in expr.terms:
        value = 1.0
        for atom in term.atoms:
            if not isinstance(atom, Var):
                raise ValueError("oracle_power_eval needs a call-free expression")
            try:
                value = tnorm_min(value, assignment[atom.name])
            except KeyError:
                raise BindingError(f"missing binding for variable {atom.name!r}") from None
        term_values.append(value)

    m = len(term_values)
    best = 0.0

    def pick(slot: int, lowest: float) -> None:
        nonlocal best
        if slot == k:
            best = snorm_max(best, lowest)
            return
        for i in range(m):
            pick(slot + 1, tnorm_min(lowest, term_values[i]))

    pick(0, 1.0)
    return best
