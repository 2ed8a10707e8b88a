"""Max-min closure of a connection matrix, transmission and rendering.

Matrices here are plain ``list[list[float]]`` of membership grades.
Max and min only select their inputs, so every cell of a result is a
cell of the input matrix (or 0/1), and exact equality holds throughout.

Both routes read one Kruskal pass (:func:`_merges`): edges join trees
best grade first, and the max-min value of two vertices is the grade of
the edge that first puts them in one tree (Kruskal 1956; Hu 1961, "The
maximum capacity route problem").

:func:`warshall_closure` closes a symmetric grade matrix (every
connection matrix is one: edges are undirected) by writing each merge's
grade into the cells between its two trees: O(E log E + n²), with no
relaxation.  Any other matrix is refused.  The max-min product, its
powers and the ascending-pivot sweep live in :mod:`fuzzchain.oracles`,
which the ``closure-power-agree`` and ``pivot-invariant`` suites check
this module against.

Both numeric routes read each edge as ``(u index, v index, grade)``
from :func:`~fuzzchain.recursion.edge_grades`, and the terminals'
indices from the system's plan; this module derives no structure.
:func:`resolve_matrix` fills the numeric matrix from those edges: an
O(n²) zero allocation at C speed plus O(E) edge resolution, with no
per-cell dispatch over the symbolic connection matrix.

:func:`transmission` reads one cell, so it neither closes nor builds the
matrix.  It stops at the merge that joins its two terminals: at most
O(E log E + n log n) work and O(n + E) memory.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator

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


def warshall_closure(m: Matrix) -> Matrix:
    """Max-min transitive closure of a symmetric matrix of grades in [0, 1].

    Off the diagonal, each pair of vertices takes the grade of the merge
    that first puts them in one tree.  A pair that no merge joins keeps
    its starting grade, ``0.0`` or ``-0.0``, as the ascending-pivot sweep
    keeps it.  A cycle through ``s`` is no better than its first edge, so
    the diagonal is raised to the largest cell of row ``s`` when that is
    strictly larger.  The input is left untouched.
    """
    n = len(m)
    if any(len(row) != n for row in m):  # zip(*m) below would truncate
        raise ValueError("matrix is not square")
    if not _is_symmetric_grade_matrix(m):
        raise ValueError("closure needs a symmetric matrix of grades in [0, 1]")
    out = [row[:] for row in m]
    merges = _merges(
        n,
        # the same test as the merges', so that no empty cell builds a tuple
        ((i, j, x) for i, row in enumerate(m) for j, x in enumerate(row[:i]) if x > 0.0),
    )
    for grade, a, b in merges:
        for i in a:
            row = out[i]
            for j in b:
                row[j] = out[j][i] = grade
    for s, row in enumerate(out):
        top = max(row)
        if top > row[s]:
            row[s] = top
    return out


def _is_symmetric_grade_matrix(m: Matrix) -> bool:
    """Every cell in [0, 1] (so no nan) and ``m[i][j] == m[j][i]``."""
    return all(0.0 <= x <= 1.0 for row in m for x in row) and all(
        row == list(column) for row, column in zip(m, zip(*m))
    )


def _merges(
    n: int, edges: Iterable[tuple[int, int, float]]
) -> Iterator[tuple[float, set[int], set[int]]]:
    """Kruskal over the undirected (u, v, grade) ``edges > 0.0`` on
    vertices ``0 .. n-1``, best grade first: yields ``(grade, a, b)``
    for each edge that joins two trees, ``a`` and ``b`` being their
    vertex sets, before the smaller set is merged into the larger."""
    tree = [{v} for v in range(n)]
    for u, v, grade in sorted(
        (edge for edge in edges if edge[2] > 0.0), key=itemgetter(2), reverse=True
    ):
        a, b = tree[u], tree[v]
        if a is not b:
            yield grade, a, b
            if len(a) < len(b):
                a, b = b, a
            a |= b
            for w in b:
                tree[w] = a


def resolve_matrix(
    registry: SystemRegistry, name: str, assignment: dict[str, float]
) -> tuple[tuple[str, ...], Matrix]:
    """Numeric connection matrix of a system under an assignment.

    Each edge's two cells take its grade from
    :func:`~fuzzchain.recursion.edge_grades`.  Returns the vertex order
    alongside the grid.

    The grid is filled from the edges, not from the symbolic matrix: an
    n×n block of ``0.0`` with ``1.0`` on the diagonal, then each edge's
    grade written to its two symmetric cells, at the endpoint indices
    ``edge_grades`` gives.  That is an O(n²) allocation at C speed plus
    O(E) resolution, with no per-cell dispatch.
    """
    from .recursion import edge_grades

    edges = edge_grades(registry, name, assignment)
    vertices = registry[name].vertices
    grid: Matrix = [[0.0] * len(vertices) for _ in vertices]
    for i, row in enumerate(grid):
        row[i] = 1.0
    for u, v, grade in edges:
        grid[u][v] = grid[v][u] = grade
    return vertices, grid


def terminal_cell(system: FuzzySystem, grid: Matrix) -> float:
    """The input-to-output cell of a grid whose rows follow ``system.vertices``."""
    plan = system._plan
    return grid[plan.start][plan.goal]


def transmission(registry: SystemRegistry, name: str, assignment: dict[str, float]) -> float:
    """Input-to-output grade: the cell of :func:`warshall_closure`, read
    off the same Kruskal pass over the edges
    :func:`~fuzzchain.recursion.edge_grades` resolves.

    It is the grade of the first merge that puts the input terminal in
    one tree and the output terminal in the other, and ``0.0`` when no
    merge joins them, as the closure keeps the starting cell; no grade is
    ``-0.0``, so neither is the answer.  No n×n grid is built: memory is
    O(n + E), and the pass stops at that merge.  The call-unrolling
    oracle shares no code with it (``eval-closure-agree``).
    """
    from .recursion import edge_grades

    system = registry[name]
    source, target = system._plan.start, system._plan.goal
    for grade, a, b in _merges(len(system.vertices), edge_grades(registry, name, assignment)):
        if source in a and target in b or source in b and target in a:
            return grade
    return 0.0


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
