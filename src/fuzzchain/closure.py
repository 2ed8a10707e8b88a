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
:func:`resolve_matrix` fills the numeric matrix from those edges with
the one fill that also builds the symbolic connection matrix
(:func:`fuzzchain.systems.connection_matrix`), so the layout lives in
one place.

:func:`transmission` reads one cell, so it neither closes nor builds the
matrix.  It stops at the merge that joins its two terminals: at most
O(E log E + n log n) work and O(n + E) memory.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .systems import ConnectionMatrix, FuzzySystem, SystemRegistry, _fill

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

    The symbolic matrix's layout over ``0.0`` and ``1.0``: each edge's
    two cells hold its grade from
    :func:`~fuzzchain.recursion.edge_grades`, and no symbolic matrix is
    built.  Returns the vertex order alongside the grid.
    """
    from .recursion import edge_grades

    vertices = registry[name].vertices
    return vertices, _fill(len(vertices), edge_grades(registry, name, assignment), 0.0, 1.0)


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


def render_numeric_matrix(vertices: tuple[str, ...], grid: Sequence[Sequence[object]]) -> str:
    """Any square grid over ``vertices`` as left-aligned columns, each
    cell by ``str`` (a float's ``str`` is its ``repr``)."""
    rows = [["", *vertices]] + [[v] + [str(x) for x in grid[i]] for i, v in enumerate(vertices)]
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in rows)


def render_symbolic_matrix(matrix: ConnectionMatrix) -> str:
    return render_numeric_matrix(matrix.vertices, matrix.cells)
