"""Max-min closure of a connection matrix, transmission and rendering.

Matrices here are plain ``list[list[float]]`` of membership grades.
Max and min only select their inputs, so every cell of a result is a
cell of the input matrix (or 0/1), and exact equality holds throughout.

:func:`warshall_closure` closes a symmetric grade matrix (every
connection matrix is one: edges are undirected) from a maximum spanning
forest: the best max-min path between two vertices is the path joining
them in that forest (Kruskal 1956; Hu 1961, "The maximum capacity route
problem").  That is O(E log E + n²), with no relaxation.  Any other
matrix is refused.  The max-min product, its powers and the
ascending-pivot sweep live in :mod:`fuzzchain.oracles`, which the
``closure-power-agree`` and ``pivot-invariant`` suites check this
module against.

:func:`resolve_matrix` fills the numeric matrix from the edges: an
O(n²) zero allocation at C speed plus O(E) edge resolution, with no
per-cell dispatch over the symbolic connection matrix.

:func:`transmission` reads one cell, so it neither closes nor builds the
matrix.  It builds the same spanning forest from the resolved edges and
walks it from the input terminal only: O(E log E + n) work and
O(n + E) memory.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .systems import ConnectionMatrix, FuzzySystem, SystemRegistry, cell_text

__all__ = [
    "warshall_closure",
    "resolve_matrix",
    "terminal_cell",
    "transmission",
    "render_numeric_matrix",
    "render_symbolic_matrix",
]

Matrix = list[list[float]]
Forest = list[list[tuple[int, float]]]


def warshall_closure(m: Matrix) -> Matrix:
    """Max-min transitive closure of a symmetric matrix of grades in [0, 1].

    Off the diagonal, the closure is the smallest grade on the path
    between the two vertices in a maximum spanning forest, walked once
    per row.  A cell that no forest path reaches keeps its starting
    grade, ``0.0`` or ``-0.0``, as the ascending-pivot sweep keeps it.
    A cycle through ``s`` is no better than its first edge, so the
    diagonal is raised to the largest cell of row ``s`` when that is
    strictly larger.  The input is left untouched.
    """
    n = len(m)
    if any(len(row) != n for row in m):  # zip(*m) below would truncate
        raise ValueError("matrix is not square")
    if not _is_symmetric_grade_matrix(m):
        raise ValueError("closure needs a symmetric matrix of grades in [0, 1]")
    forest = _spanning_forest(
        n,
        # the same test as the forest's, so that no empty cell builds a tuple
        ((i, j, x) for i, row in enumerate(m) for j, x in enumerate(row[:i]) if x > 0.0),
    )
    out = []
    for s in range(n):
        row = m[s][:]
        _walk_forest(forest, s, row)
        top = max(row)
        if top > row[s]:
            row[s] = top
        out.append(row)
    return out


def _is_symmetric_grade_matrix(m: Matrix) -> bool:
    """Every cell in [0, 1] (so no nan) and ``m[i][j] == m[j][i]``."""
    return all(0.0 <= x <= 1.0 for row in m for x in row) and all(
        row == list(column) for row, column in zip(m, zip(*m))
    )


def _spanning_forest(n: int, edges: Iterable[tuple[int, int, float]]) -> Forest:
    """Each vertex's (neighbour, grade) list in a maximum spanning forest
    of the undirected (u, v, grade) ``edges`` on vertices ``0 .. n-1``.

    Kruskal, with union-find, keeps each edge ``> 0.0`` that joins two
    trees, best grade first.
    """
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest: Forest = [[] for _ in range(n)]
    for u, v, grade in sorted(
        (edge for edge in edges if edge[2] > 0.0), key=itemgetter(2), reverse=True
    ):
        root_u, root_v = find(u), find(v)
        if root_u != root_v:
            parent[root_u] = root_v
            forest[u].append((v, grade))
            forest[v].append((u, grade))
    return forest


def _walk_forest(forest: Forest, s: int, row: list[float]) -> None:
    """Write into ``row`` the smallest grade on the forest path from ``s``
    to each vertex it reaches, carried by an explicit stack.  ``row[s]``
    and the cells of unreached vertices are left alone."""
    stack = [(t, s, grade) for t, grade in forest[s]]
    while stack:
        v, came_from, width = stack.pop()
        row[v] = width
        for t, grade in forest[v]:
            if t != came_from:
                stack.append((t, v, grade if grade < width else width))


def _resolved_edges(
    registry: SystemRegistry, name: str, assignment: dict[str, float]
) -> tuple[tuple[str, ...], list[tuple[int, int, float]]]:
    """The vertex order of a system and each edge's (u index, v index, grade):
    the endpoint indices of the system's plan, and the grades
    :func:`~fuzzchain.recursion.edge_grades` gives."""
    from .recursion import edge_grades

    system = registry[name]
    plan = system._plan
    return system.vertices, list(zip(plan.us, plan.vs, edge_grades(registry, name, assignment)))


def resolve_matrix(
    registry: SystemRegistry, name: str, assignment: dict[str, float]
) -> tuple[tuple[str, ...], Matrix]:
    """Numeric connection matrix of a system under an assignment.

    Each edge's two cells take its grade from
    :func:`~fuzzchain.recursion.edge_grades`.  Returns the vertex order
    alongside the grid.

    The grid is filled from the edges, not from the symbolic matrix: an
    n×n block of ``0.0`` with ``1.0`` on the diagonal, then each edge's
    grade written to its two symmetric cells, at the indices of
    ``system.vertices``.  That is an O(n²) allocation at C speed plus
    O(E) resolution, with no per-cell dispatch.
    """
    vertices, edges = _resolved_edges(registry, name, assignment)
    grid: Matrix = [[0.0] * len(vertices) for _ in vertices]
    for i, row in enumerate(grid):
        row[i] = 1.0
    for u, v, grade in edges:
        grid[u][v] = grid[v][u] = grade
    return vertices, grid


def terminal_cell(system: FuzzySystem, vertices: tuple[str, ...], grid: Matrix) -> float:
    """The input-to-output cell of a grid whose rows follow ``vertices``."""
    return grid[vertices.index(system.input_terminal)][vertices.index(system.output_terminal)]


def transmission(registry: SystemRegistry, name: str, assignment: dict[str, float]) -> float:
    """Input-to-output grade: one row of :func:`warshall_closure`, read off
    the same spanning forest of the resolved edges.

    The row starts as the input's row of :func:`resolve_matrix` (``0.0``,
    ``1.0`` at the input, each input edge's grade at its neighbour), and
    a cell the forest does not reach keeps that grade, as the closure
    keeps it; no grade is ``-0.0``, so neither is the answer.  No n×n
    grid is built: memory is O(n + E) and work O(E log E + n).  The
    call-unrolling oracle shares no code with it (``eval-closure-agree``).
    """
    system = registry[name]
    vertices, edges = _resolved_edges(registry, name, assignment)
    source = vertices.index(system.input_terminal)
    row = [0.0] * len(vertices)
    row[source] = 1.0
    for u, v, grade in edges:
        if u == source:
            row[v] = grade
        elif v == source:
            row[u] = grade
    _walk_forest(_spanning_forest(len(vertices), edges), source, row)
    return row[vertices.index(system.output_terminal)]


# --- rendering --------------------------------------------------------------


def _render_grid(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def render_numeric_matrix(vertices: tuple[str, ...], grid: Matrix) -> str:
    header = [""] + list(vertices)
    rows = [[v] + [repr(x) for x in grid[i]] for i, v in enumerate(vertices)]
    return _render_grid(header, rows)


def render_symbolic_matrix(matrix: ConnectionMatrix) -> str:
    header = [""] + list(matrix.vertices)
    rows = [
        [v] + [cell_text(c) for c in matrix.cells[i]] for i, v in enumerate(matrix.vertices)
    ]
    return _render_grid(header, rows)
