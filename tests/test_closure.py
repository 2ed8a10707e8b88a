from __future__ import annotations

import functools
import itertools
import sys
import tracemalloc

import pytest

from conftest import budget_registries, grid_system, lattice_relations

from fuzzchain import closure, oracles, systems
from fuzzchain.algebra import Call, Var
from fuzzchain.checks import check_pivot_invariant, random_assignment, random_registry
from fuzzchain.closure import (
    render_numeric_matrix,
    render_symbolic_matrix,
    resolve_matrix,
    terminal_cell,
    transmission,
    warshall_closure,
)
from fuzzchain.oracles import matrix_power, maxmin_matmul, oracle_cut_eval, warshall_steps
from fuzzchain.recursion import call_layers, eval_system, resolve_call
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import (
    FIXTURE_ASSIGNMENT,
    ONE,
    ZERO,
    EdgeDef,
    FuzzySystem,
    SystemRegistry,
    builtin_fixtures,
    connection_matrix,
    format_registry,
    parse_registry,
)

A = [[0.5, 0.2], [0.9, 0.4]]
B = [[0.3, 0.8], [0.6, 0.1]]

# psi1 under the fixture assignment (x=0.3 y=0.7 w=0.6 z=0.8 xbar=0.5),
# vertex order A B C D
PSI1_RESOLVED = [
    [1.0, 0.0, 0.7, 0.3],
    [0.0, 1.0, 0.6, 0.8],
    [0.7, 0.6, 1.0, 0.5],
    [0.3, 0.8, 0.5, 1.0],
]
PSI1_CLOSED = [
    [1.0, 0.6, 0.7, 0.6],
    [0.6, 1.0, 0.6, 0.8],
    [0.7, 0.6, 1.0, 0.6],
    [0.6, 0.8, 0.6, 1.0],
]


def _product_by_definition(a, b):
    """(a o b)[i][j] = max over k of min(a[i][k], b[k][j])."""
    n = len(a)
    return [[max(min(a[i][k], b[k][j]) for k in range(n)) for j in range(n)] for i in range(n)]


def _closure_by_definition(m):
    """m v m^2 v m^3 v ..., grown one product at a time until it stops changing.

    If ``total o m`` adds nothing to ``total``, no higher power of m can
    add anything either, so the first sum that stops growing is the whole
    sum.
    """
    n = len(m)
    total = [row[:] for row in m]
    while True:
        step = _product_by_definition(total, m)
        grown = [[max(total[i][j], step[i][j]) for j in range(n)] for i in range(n)]
        if grown == total:
            return total
        total = grown


def _swept(m):
    """The last snapshot of the ascending-pivot sweep: the closure of any
    square grade matrix, symmetric or not."""
    return list(warshall_steps(m))[-1][1]


def _mirrored(m):
    """``m``'s lower triangle and diagonal, reflected into a symmetric matrix."""
    return [[m[max(i, j)][min(i, j)] for j in range(len(m))] for i in range(len(m))]


_SHAPES = ("dense", "sparse", "symmetric", "hollow")


def _seeded_matrices(seed):
    """Square grade matrices, n = 1..12, in the four ``_SHAPES`` per size.

    ``dense`` is asymmetric and non-reflexive, ``sparse`` has three cells
    in four at 0, ``symmetric`` has a unit diagonal and ``hollow`` is
    ``dense`` with a zero diagonal.  Grades come from a 20-point grid, so
    ties are common.
    """
    rng = SplitMix64(seed)
    for n in range(1, 13):
        for _ in range(3):
            dense = [[rng.grade() for _ in range(n)] for _ in range(n)]
            sparse = [
                [0.0 if rng.chance(3, 4) else rng.grade() for _ in range(n)] for _ in range(n)
            ]
            symmetric = [[1.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    symmetric[i][j] = symmetric[j][i] = 0.0 if rng.chance(1, 2) else rng.grade()
            hollow = [
                [0.0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(dense)
            ]
            yield from (dense, sparse, symmetric, hollow)


def _symmetric_matrices(seed, sizes=range(1, 13)):
    """Symmetric grade matrices, four per draw: a unit, zero, mixed-zero
    and random diagonal.

    Half the off-diagonal cells are 0, each of the two cells ``0.0`` or
    ``-0.0`` on its own (they still compare equal), and grades come from
    a 20-point grid, so disconnected vertices, signed zeros and tied
    grades are common.  The random diagonal mixes ``0.0``, ``-0.0``,
    ``1.0`` and grades.
    """
    rng = SplitMix64(seed)
    for n in sizes:
        for _ in range(3):
            base = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    if rng.chance(1, 2):
                        base[i][j], base[j][i] = rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0))
                    else:
                        base[i][j] = base[j][i] = rng.grade()
            for diagonal in (
                [1.0] * n,
                [0.0] * n,
                [rng.choice((0.0, -0.0)) for _ in range(n)],
                [rng.choice((0.0, -0.0, 1.0, rng.grade())) for _ in range(n)],
            ):
                yield [
                    [diagonal[i] if i == j else x for j, x in enumerate(row)]
                    for i, row in enumerate(base)
                ]


def test_matmul_equals_definition_on_seeded_matrices():
    left, right = list(_seeded_matrices(11)), list(_seeded_matrices(12))
    for a, b in zip(left, right):
        assert maxmin_matmul(a, b) == _product_by_definition(a, b)
        assert maxmin_matmul(a, a) == _product_by_definition(a, a)


def test_closure_equals_definition_on_seeded_matrices():
    # the closure takes only the symmetric shape; the sweep takes all four
    for shape, m in zip(itertools.cycle(_SHAPES), _seeded_matrices(13)):
        before = [row[:] for row in m]
        want = _closure_by_definition(m)
        assert _swept(m) == want, shape
        if shape == "symmetric":
            assert warshall_closure(m) == want
        assert m == before  # the input is left untouched


def test_symmetric_closure_equals_definition_and_the_sweep_by_repr():
    # the forest must keep each cell the sweep keeps, so -0.0 stays -0.0
    cells = set()
    for m in _symmetric_matrices(17):
        closed = warshall_closure(m)
        assert closed == _closure_by_definition(m)
        swept = _swept(m)
        assert repr(closed) == repr(swept), m
        cells.update(repr(x) for row in closed for x in row)
    assert {"-0.0", "0.0", "1.0"} <= cells


def test_closure_relaxes_nothing_on_symmetric_grades_and_refuses_other_matrices(
    reference_calls,
):
    for m in [PSI1_RESOLVED, *_symmetric_matrices(29)]:
        warshall_closure(m)
        assert reference_calls == []
    nan = float("nan")
    refused = r"^closure needs a symmetric matrix of grades in \[0, 1\]$"
    for m in (
        [[0.2, 0.7], [0.3, 1.0]],  # asymmetric
        [[1.0, 1.5], [1.5, 1.0]],  # a cell above 1
        [[-0.5, 0.2], [0.2, 1.0]],  # a cell below 0
        [[1.0, nan], [nan, 1.0]],
        A,
        B,
    ):
        with pytest.raises(ValueError, match=refused):
            warshall_closure(m)
    # a ragged matrix is refused before zip(*m) can truncate it to a symmetric one
    with pytest.raises(ValueError, match="^matrix is not square$"):
        warshall_closure([[1.0, 0.5], [0.5]])
    assert reference_calls == []
    check_pivot_invariant(47, 1)  # a reference the checks imported is recorded too
    assert reference_calls == ["warshall_steps"]


def test_matmul_by_hand():
    assert maxmin_matmul(A, B) == [[0.3, 0.5], [0.4, 0.8]]


def test_matmul_shape_errors():
    with pytest.raises(ValueError, match="not square"):
        maxmin_matmul([[0.1, 0.2]], B)
    with pytest.raises(ValueError, match="dimension mismatch"):
        maxmin_matmul(A, [[0.1]])


def test_matrix_power_basics():
    assert matrix_power(A, 1) == A
    assert matrix_power(A, 1) is not A
    assert matrix_power(A, 2) == maxmin_matmul(A, A)
    for bad in (0, -2, 1.5):
        with pytest.raises(ValueError, match="integer p >= 1"):
            matrix_power(A, bad)


def test_warshall_steps_snapshots_are_copies():
    steps = list(warshall_steps(PSI1_RESOLVED))
    assert [pivot for pivot, _ in steps] == [0, 1, 2, 3]
    steps[0][1][0][0] = 99.0  # mutating a snapshot must not leak
    assert warshall_closure(PSI1_RESOLVED) == PSI1_CLOSED


def test_closure_psi1_by_hand(registry, fixture_assignment):
    vertices, grid = resolve_matrix(registry, "psi1", fixture_assignment)
    assert vertices == ("A", "B", "C", "D")
    assert grid == PSI1_RESOLVED
    assert warshall_closure(grid) == PSI1_CLOSED
    assert transmission(registry, "psi1", fixture_assignment) == 0.6


def test_closure_is_idempotent_and_dominates_input():
    # each asymmetric draw goes to the sweep, and its mirror to the closure
    rng = SplitMix64(99)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = [[rng.grade() for _ in range(n)] for _ in range(n)]
        for close, matrix in ((_swept, m), (warshall_closure, _mirrored(m))):
            closed = close(matrix)
            assert close(closed) == closed
            for i in range(n):
                for j in range(n):
                    assert closed[i][j] >= matrix[i][j]


def test_reflexive_closure_equals_power():
    rng = SplitMix64(5)
    for _ in range(50):
        n = rng.randint(2, 7)
        m = [[rng.grade() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = 1.0
        assert _swept(m) == matrix_power(m, n - 1)
        symmetric = _mirrored(m)
        assert warshall_closure(symmetric) == matrix_power(symmetric, n - 1)


def test_resolve_matrix_call_cells(variant_registry, deep_assignment):
    assignment = dict(deep_assignment, xbar=0.95)
    vertices, grid = resolve_matrix(variant_registry, "psi1v", assignment)
    # the C-D cell is the called system's grade, symmetric like any label
    c, d = vertices.index("C"), vertices.index("D")
    assert grid[c][d] == 0.8
    assert grid[d][c] == 0.8
    assert transmission(variant_registry, "psi1v", assignment) == 0.8


def test_resolve_matrix_zero_count_call_transmits_nothing(fixture_assignment):
    registry = parse_registry(
        """
        system base {
          terminals A -> B
          edge A B x
        }
        system outer {
          terminals A -> B
          edge A C y
          edge C B call base 0
        }
        """
    )
    vertices, grid = resolve_matrix(registry, "outer", fixture_assignment)
    c, b = vertices.index("C"), vertices.index("B")
    assert grid[c][b] == 0.0
    assert transmission(registry, "outer", fixture_assignment) == 0.0


def test_transmission_agrees_with_chain_evaluation(registry, fixture_assignment):
    for name in registry.names():
        assert transmission(registry, name, fixture_assignment) == eval_system(
            registry, name, fixture_assignment
        )


def _closure_cell(registry, name, assignment):
    _vertices, grid = resolve_matrix(registry, name, assignment)
    return terminal_cell(registry[name], warshall_closure(grid))


def _swept_cell(registry, name, assignment):
    """The input-to-output cell after the last pivot of the ascending sweep,
    which shares no code with the Kruskal pass and keeps ``-0.0`` as the
    closure does."""
    _vertices, grid = resolve_matrix(registry, name, assignment)
    for _pivot, swept in warshall_steps(grid):
        pass
    return terminal_cell(registry[name], swept)


def _signed_zero_assignment(rng):
    """A random assignment with about a third of its bindings 0.0 or -0.0."""
    assignment = random_assignment(rng)
    for var in assignment:
        if rng.chance(1, 3):
            assignment[var] = 0.0 if rng.chance(1, 2) else -0.0
    return assignment


def _grids_with_calls(k):
    """Past the path and unroll oracles' vertex cap, for seeds 11 to 13: a
    k x k grid ``grid`` with about a fifth of its edges calling ``psi1_rec``
    at counts 0 to 3, and grades that include ``0.0`` and ``-0.0``.  Yields
    the registry, the assignment, the grid's variables and its dead calls."""
    for seed in (11, 12, 13):
        rng = SplitMix64(seed)
        edges = [
            (e.u, e.v, Call("psi1_rec", rng.below(4)) if rng.chance(1, 5) else e.atom)
            for e in grid_system(k).edges
        ]
        dead = sum(isinstance(atom, Call) and atom.count == 0 for _u, _v, atom in edges)
        registry = builtin_fixtures(rec_count=3)
        registry.add(FuzzySystem.build("grid", "G0_0", f"G{k - 1}_{k - 1}", edges))
        variables = [a.name for _u, _v, a in edges if isinstance(a, Var)]
        names = variables + ["x", "y", "z", "w"]
        assignment = {name: rng.choice((0.0, -0.0, 0.25, 0.5, 0.75, 1.0)) for name in names}
        yield registry, assignment, variables, dead


@pytest.mark.parametrize("k", [4, 5])
def test_eval_reads_the_closure_cell_on_grids_with_calls(k):
    """The chain max of ``eval``, the ``closure`` command's terminal cell
    and the α-cut oracle agree by ``repr``."""
    dead = 0
    for registry, assignment, _variables, grid_dead in _grids_with_calls(k):
        got = eval_system(registry, "grid", assignment)
        assert repr(got) == repr(_closure_cell(registry, "grid", assignment))
        assert repr(got) == repr(oracle_cut_eval(registry, "grid", assignment))
        dead += grid_dead
    assert dead > 0  # some calls may never run


@pytest.mark.parametrize("k", [4, 5])
def test_eval_keeps_the_lattice_relations_on_grids_with_calls(k):
    """No oracle reaches these grids cheaply, but the exact relations of a
    max-min answer do: probed on a grid variable and on ``w``, which the
    called ``psi1_rec`` reads."""
    moved = 0
    for registry, assignment, variables, _dead in _grids_with_calls(k):
        probes = (variables[len(variables) // 2], "w")
        moved += lattice_relations(functools.partial(eval_system, registry, "grid"), assignment, probes)
    assert moved > 0


def _shuffled(rng, items):
    """A seeded Fisher-Yates shuffle of ``items``, as a list."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _renamings(rng, registry):
    """``registry`` rebuilt with every system's edges declared in reverse,
    then in a seeded shuffle, then as declared over a shuffled vertex order."""

    def rebuilt(remake):
        out = SystemRegistry()
        for system in registry:
            out.add(remake(system))
        return out

    def redeclared(order):
        return lambda s: FuzzySystem.build(
            s.name, s.input_terminal, s.output_terminal, [(e.u, e.v, e.atom) for e in order(s.edges)]
        )

    yield rebuilt(redeclared(lambda edges: edges[::-1]))
    yield rebuilt(redeclared(functools.partial(_shuffled, rng)))
    yield rebuilt(
        lambda s: FuzzySystem(
            s.name, s.input_terminal, s.output_terminal, tuple(_shuffled(rng, s.vertices)), s.edges
        )
    )


def _order_free_answers(registry, name, assignment):
    """``eval``, ``resolve_call`` at budgets 0 to 3 and the ``closure``
    command's terminal cell, by ``repr``."""
    values = [eval_system(registry, name, assignment)]
    values += [resolve_call(registry, name, budget, assignment) for budget in range(4)]
    return [*map(repr, values), repr(_closure_cell(registry, name, assignment))]


@pytest.mark.parametrize("k", [4, 5])
def test_no_edge_or_vertex_order_changes_an_answer_on_grids_with_calls(k):
    """Renaming: the chain order changes with the edge order, and the
    chain bound prunes in chain order, yet no answer may move."""
    rng = SplitMix64(k)
    for registry, assignment, _variables, _dead in _grids_with_calls(k):
        want = _order_free_answers(registry, "grid", assignment)
        for renamed in _renamings(rng, registry):
            assert _order_free_answers(renamed, "grid", assignment) == want


def test_no_edge_or_vertex_order_changes_an_answer_on_random_registries():
    """Renaming on the registries the budget lattice test draws."""
    rng = SplitMix64(7)
    reordered = 0
    for registry, name, assignment, _probes in budget_registries():
        want = _order_free_answers(registry, name, assignment)
        for renamed in _renamings(rng, registry):
            assert _order_free_answers(renamed, name, assignment) == want, format_registry(registry)
            reordered += [s.edges for s in renamed] != [s.edges for s in registry]
    assert reordered > 300  # most rebuilds declare some system's edges in a new order


def _sparse_registry(rng, n, hang=False):
    """The fixtures plus a connected n-vertex system ``big`` with about 1.5n
    edges, a few of them calls into the fixtures; returns it and the
    variables of ``big``.  With ``hang``, the output terminal is one more
    vertex, ``T``, joined to the rest by one edge, ``tail``."""
    edges = {}
    for v in range(1, n):
        edges.setdefault(frozenset((v, rng.below(v))), None)
    while len(edges) < 3 * n // 2:
        u, v = rng.below(n), rng.below(n)
        if u != v:
            edges.setdefault(frozenset((u, v)), None)
    named = []
    for idx, pair in enumerate(edges):
        u, v = sorted(pair)
        if rng.chance(1, 20):
            atom = Call(rng.choice(("psi1", "phi", "psi1_rec")), rng.below(4))
        else:
            atom = Var(f"e{idx}")
        named.append((f"N{u}", f"N{v}", atom))
    output = f"N{n - 1}"
    if hang:
        named.append((output, "T", Var("tail")))
        output = "T"
    registry = builtin_fixtures()
    registry.add(FuzzySystem.build("big", "N0", output, named))
    return registry, [atom.name for _u, _v, atom in named if isinstance(atom, Var)]


def test_transmission_reads_the_closure_cell_on_random_registries():
    answers, negative = [], 0
    for seed in range(2000):
        rng = SplitMix64(seed)
        registry = random_registry(rng, n_systems=2 + seed % 2, max_vertices=5 + seed % 4, max_edges=12)
        assignment = _signed_zero_assignment(rng)
        negative += "-0.0" in map(repr, assignment.values())
        for name in registry.names():
            got = transmission(registry, name, assignment)
            assert repr(got) == repr(_swept_cell(registry, name, assignment)), (seed, name)
            answers.append(repr(got))
    assert negative > 1000  # most cases bind a -0.0 ...
    assert "0.0" in answers and "-0.0" not in answers  # ... and every zero answered is 0.0


def _sparse_assignment(rng, names):
    """Fixture bindings plus a grade for each of ``names``, a fifth of them
    ``0.0`` or ``-0.0``."""
    assignment = dict(FIXTURE_ASSIGNMENT)
    for var in names:
        assignment[var] = rng.choice((0.0, -0.0)) if rng.chance(1, 5) else rng.grade()
    return assignment


def test_transmission_reads_the_closure_cell_on_large_sparse_systems(reference_calls):
    rng = SplitMix64(11)
    answers = []
    for n in (*range(40, 121, 8), 600):
        registry, names = _sparse_registry(rng, n)
        assignment = _sparse_assignment(rng, names)
        got = transmission(registry, "big", assignment)
        assert reference_calls == []  # transmission runs no reference
        if n <= 120:
            assert repr(got) == repr(_swept_cell(registry, "big", assignment)), n
        else:  # the sweep would take seconds here
            assert repr(got) == repr(_closure_cell(registry, "big", assignment)), n
        answers.append(repr(got))
    assert len(set(answers)) > 3  # the systems answer with several grades
    assert "0.0" in answers  # an output the input does not reach


def _hung_sparse_systems():
    """Past the path and unroll oracles' vertex cap, sparse systems of 40
    to 600 vertices with call edges, as (n, registry, assignment, the
    variables of ``big``).  The last hangs its output terminal off the rest
    by one edge graded below every other, so its terminals join at the
    Kruskal pass's last merge."""
    rng = SplitMix64(31)
    for n in (40, 64, 80, 120, 300, 600):
        registry, names = _sparse_registry(rng, n, hang=n == 600)
        assignment = _sparse_assignment(rng, names)
        if n == 600:
            assignment["tail"] = 0.01  # every other grade is a multiple of 0.05
        yield n, registry, assignment, names


def test_the_closure_cell_reads_the_cut_oracle_on_large_sparse_systems():
    """A closure that lost the last merge would read ``0.0`` on the hung
    system, and so would ``transmission``, which reads the same pass."""
    answers = []
    for n, registry, assignment, _names in _hung_sparse_systems():
        got = _closure_cell(registry, "big", assignment)
        assert repr(got) == repr(oracle_cut_eval(registry, "big", assignment)), n
        answers.append(repr(got))
    assert answers[-1] == "0.01"  # the terminals join at the last merge
    assert len(set(answers)) > 2 and "0.0" in answers


@pytest.mark.parametrize("route", [_closure_cell, transmission])
def test_the_closure_routes_keep_the_lattice_relations_on_large_sparse_systems(route):
    """Probed on a variable of ``big`` and on the first three whose grade
    is the answer, among which a bottleneck may be (on the hung system,
    ``tail``)."""
    moved = 0
    for _n, registry, assignment, names in _hung_sparse_systems():
        got = route(registry, "big", assignment)
        probes = [names[0], *[x for x in names if assignment[x] + 0.0 == got][:3]]
        moved += lattice_relations(functools.partial(route, registry, "big"), assignment, probes)
    assert moved >= 4


def test_transmission_never_resolves_the_matrix(monkeypatch):
    rng = SplitMix64(23)
    registry, names = _sparse_registry(rng, 80)
    assignment = _sparse_assignment(rng, names)
    cases = [(registry, name) for name in registry.names()]
    cases += [(builtin_fixtures(rec_count=k), "psi1_rec") for k in (0, 2, 13)]
    expected = [repr(_closure_cell(reg, name, assignment)) for reg, name in cases]

    def refuse(*_args):
        raise AssertionError("transmission built the n×n grid")

    monkeypatch.setattr(closure, "resolve_matrix", refuse)
    for (reg, name), answer in zip(cases, expected):
        assert repr(transmission(reg, name, assignment)) == answer, name


def test_the_matrix_routes_build_no_walk_table():
    # the walk table holds a tuple per edge end, so a system the route
    # walks no chain of leaves it unbuilt; the callees are walked
    for route in (transmission, resolve_matrix, _closure_cell):
        rng = SplitMix64(29)
        registry, names = _sparse_registry(rng, 80)
        route(registry, "big", _sparse_assignment(rng, names))
        plan = registry["big"]._plan
        assert "table" not in vars(plan), route
        assert "table" in vars(registry["psi1"]._plan), route
        assert len(plan.table) == 80 and "table" in vars(plan)


def test_transmission_memory_stays_far_below_the_grid():
    # the n×n grid's row pointers alone take 8n² bytes, 8 MB at n = 1 000
    n = 1000
    registry, names = _sparse_registry(SplitMix64(31), n)
    assignment = _sparse_assignment(SplitMix64(32), names)
    answer = repr(_closure_cell(registry, "big", assignment))
    transmission(registry, "big", assignment)  # fill the system's cached tables
    tracemalloc.start()
    try:
        got = transmission(registry, "big", assignment)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 10, peak
    assert repr(got) == answer


def test_transmission_never_runs_the_closure_sweep(monkeypatch):
    def refuse(_m):
        raise AssertionError("transmission ran the whole closure")

    monkeypatch.setattr(closure, "warshall_closure", refuse)
    registry = builtin_fixtures(rec_count=8)
    for name in registry.names():
        assert transmission(registry, name, FIXTURE_ASSIGNMENT) == eval_system(
            registry, name, FIXTURE_ASSIGNMENT
        )


def _one_system(name, vertices, grades):
    """The fixtures plus ``name`` (IN -> OUT) with one variable per edge."""
    edges = tuple(EdgeDef(u, v, Var(f"e{i}")) for i, (u, v, _grade) in enumerate(grades))
    registry = builtin_fixtures()
    registry.add(FuzzySystem(name, "IN", "OUT", vertices, edges))
    return registry, {f"e{i}": grade for i, (_u, _v, grade) in enumerate(grades)}


def _reversed_path_registry(n):
    """The fixtures plus ``path``: IN - V(n-1) - ... - V2 - OUT, with its
    vertices declared IN, OUT, V2, ..., V(n-1), against the path's order."""
    vertices = ("IN", "OUT") + tuple(f"V{i}" for i in range(2, n))
    path = ["IN"] + [f"V{i}" for i in range(n - 1, 1, -1)] + ["OUT"]
    grades = [(u, v, 1.0 - (i % 7) / 10) for i, (u, v) in enumerate(zip(path, path[1:]))]
    return _one_system("path", vertices, grades)


@pytest.fixture
def reference_calls(monkeypatch):
    """The name of every matrix reference a package module calls, in call
    order, whether it reads the reference from ``oracles`` or imported it."""
    calls = []
    for name in ("maxmin_matmul", "matrix_power", "warshall_steps"):
        real = getattr(oracles, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("fuzzchain") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_transmission_follows_a_path_declared_against_the_pivot_order():
    # Ascending vertex order meets this path backwards, so a pass over the
    # vertices in that order would carry the row one step per pass.  The
    # Kruskal pass merges the path's edges, whatever the order.
    registry, assignment = _reversed_path_registry(60)
    assignment["e40"] = 0.35
    assert transmission(registry, "path", assignment) == 0.35


@pytest.fixture
def merges_read(monkeypatch):
    """For each Kruskal pass, its size and the grade of each merge that
    the caller consumed."""
    passes = []
    merges = closure._merges

    def counted(size, edges):
        grades = []
        passes.append((size, grades))
        for merge in merges(size, edges):
            grades.append(merge[0])
            yield merge

    monkeypatch.setattr(closure, "_merges", counted)
    return passes


def test_transmission_runs_one_kruskal_pass_and_relaxes_no_row(reference_calls, merges_read):
    n = 400
    registry, assignment = _reversed_path_registry(n)
    assignment["e200"] = 0.35
    got = transmission(registry, "path", assignment)
    assert [size for size, _grades in merges_read] == [n]
    assert reference_calls == []
    assert repr(got) == "0.35"


def test_transmission_stops_at_the_merge_that_joins_its_terminals(merges_read):
    # IN-OUT is the best edge, so its merge comes first and the 400-vertex
    # path of lower grades is never merged
    n = 400
    vertices = ("IN", "OUT") + tuple(f"V{i}" for i in range(2, n))
    path = ["IN", *vertices[2:], "OUT"]
    grades = [(u, v, 0.8 - (i % 7) / 10) for i, (u, v) in enumerate(zip(path, path[1:]))]
    registry, assignment = _one_system("s", vertices, [("IN", "OUT", 0.9), *grades])
    got = transmission(registry, "s", assignment)
    assert merges_read == [(n, [0.9])]
    assert repr(got) == repr(_closure_cell(registry, "s", assignment)) == "0.9"


@pytest.mark.parametrize(
    "vertices, grades, answer",
    [
        # the output's edge to the input is bound to -0.0, which reads
        # 0.0, so no merge reads it and the output keeps its starting
        # cell, 0.0
        (
            ("IN", "A", "B", "C", "OUT"),
            [("IN", "A", 0.7), ("A", "B", 0.5), ("IN", "OUT", -0.0), ("OUT", "C", 0.9)],
            "0.0",
        ),
        # no merge joins the output's tree to the input's: its cell stays 0.0
        (
            ("IN", "OUT", "A", "B", "C"),
            [("IN", "A", 0.7), ("A", "B", 0.5), ("OUT", "C", 0.9)],
            "0.0",
        ),
        # A-OUT joins the terminals' trees before the cycle's other edges
        # are read
        (
            ("IN", "OUT", "A", "B", "C"),
            [
                ("IN", "A", 0.9),
                ("A", "OUT", 0.8),
                ("IN", "B", 0.6),
                ("B", "C", 0.5),
                ("C", "OUT", 0.7),
            ],
            "0.8",
        ),
    ],
    ids=["signed-zero-edge", "other-component", "early-exit"],
)
def test_transmission_stop_rules_read_the_closure_cell(vertices, grades, answer):
    registry, assignment = _one_system("s", vertices, grades)
    got = transmission(registry, "s", assignment)
    assert repr(got) == repr(_closure_cell(registry, "s", assignment)) == answer


def _resolve_by_cells(registry, name, assignment):
    """The numeric matrix read cell by cell from the symbolic one: the unit
    and zero cells, each variable's binding with its sign of zero dropped,
    and each call as :func:`resolve_call` grades it at its declared count
    (0 below count 1)."""
    symbolic = connection_matrix(registry[name])

    def read(cell):
        if cell is ONE:
            return 1.0
        if cell is ZERO:
            return 0.0
        if not isinstance(cell, Call):
            return abs(assignment[cell.name])
        return 0.0 if cell.count < 1 else resolve_call(registry, cell.target, cell.count, assignment)

    return symbolic.vertices, [[read(cell) for cell in row] for row in symbolic.cells]


def _repr_matrix(vertices, grid):
    return vertices, [[repr(x) for x in row] for row in grid]


# mid grades 0.2 at budgets 0 and 1 and 0.9 from budget 2 on, under
# _RISING; outer calls it at counts 0, 1, 3 and 50
_CALL_COUNTS_TEXT = """
system base {
  terminals A -> B
  edge A B x
}
system mid {
  terminals A -> B
  edge A B y
  edge A C x
  edge C B call base 1
}
system outer {
  terminals A -> B
  edge A C call mid 0
  edge A D call mid 1
  edge A E call mid 3
  edge A F call mid 50
  edge C B z
  edge D B z
  edge E B z
  edge F B z
}
"""
_RISING = dict(FIXTURE_ASSIGNMENT, x=0.9, y=0.2)


def _matrix_cases():
    """(registry, name, assignment) for every shape the fill must get right."""
    for seed in range(300):
        rng = SplitMix64(seed)
        registry = random_registry(rng, n_systems=2 + seed % 2, max_vertices=5 + seed % 4, max_edges=12)
        assignment = _signed_zero_assignment(rng)
        for name in registry.names():
            yield registry, name, assignment
    for rec_count in range(14):
        registry = builtin_fixtures(rec_count=rec_count)
        for assignment in (FIXTURE_ASSIGNMENT, dict(FIXTURE_ASSIGNMENT, x=-0.0, w=0.0)):
            for name in registry.names():
                yield registry, name, assignment
    registry = parse_registry(_CALL_COUNTS_TEXT)
    for assignment in (_RISING, dict(FIXTURE_ASSIGNMENT, x=-0.0, y=0.0)):
        for name in registry.names():
            yield registry, name, assignment
    path, path_assignment = _reversed_path_registry(30)
    yield path, "path", path_assignment


def test_resolve_matrix_equals_the_cell_by_cell_reading():
    # the closure cell reads resolve_matrix and transmission the same
    # resolved edges, so only a reference built another way can catch a
    # wrong grade
    cells, negative = set(), 0
    for registry, name, assignment in _matrix_cases():
        vertices, grid = resolve_matrix(registry, name, assignment)
        assert _repr_matrix(vertices, grid) == _repr_matrix(
            *_resolve_by_cells(registry, name, assignment)
        ), name
        cells.update(repr(x) for row in grid for x in row)
        negative += "-0.0" in map(repr, assignment.values())
    assert negative > 100  # many cases bind a -0.0 ...
    assert {"0.0", "1.0"} <= cells and "-0.0" not in cells  # ... and no cell holds one


def test_resolve_matrix_reads_call_counts_against_the_layer_table():
    registry = parse_registry(_CALL_COUNTS_TEXT)
    grades, layers = call_layers(registry, "outer", _RISING)
    assert grades == {"z": _RISING["z"], "y": 0.2, "x": 0.9}  # met breadth-first
    assert [layer["mid"] for layer in layers[:3]] == [0.2, 0.2, 0.9]
    signed, _ = call_layers(registry, "outer", dict(_RISING, z=-0.0))
    assert repr(signed["z"]) == "0.0"
    assert len(layers) - 1 < 50  # count 50 reads past the top of the table
    vertices, grid = resolve_matrix(registry, "outer", _RISING)
    a, c, d, e, f = (vertices.index(v) for v in "ACDEF")
    assert [grid[a][c], grid[a][d], grid[a][e], grid[a][f]] == [0.0, 0.2, 0.9, 0.9]
    assert [grid[c][a], grid[d][a], grid[e][a], grid[f][a]] == [0.0, 0.2, 0.9, 0.9]
    assert resolve_call(registry, "mid", 50, _RISING) == 0.9


def test_resolve_matrix_does_not_build_the_symbolic_matrix(monkeypatch):
    rng = SplitMix64(5)
    path, assignment = _reversed_path_registry(40)  # holds the fixtures at rec_count 2
    assignment.update(FIXTURE_ASSIGNMENT, **random_assignment(rng))
    registries = [
        builtin_fixtures(rec_count=0),
        builtin_fixtures(rec_count=13),
        path,
        random_registry(rng, n_systems=3, max_vertices=8, max_edges=12),
    ]
    cases = [(registry, name) for registry in registries for name in registry.names()]
    expected = [
        (
            _repr_matrix(*_resolve_by_cells(registry, name, assignment)),
            eval_system(registry, name, assignment),
        )
        for registry, name in cases
    ]

    def refuse(_system):
        raise AssertionError("the numeric matrix was read from the symbolic one")

    monkeypatch.setattr(systems, "connection_matrix", refuse)
    monkeypatch.setattr(closure, "connection_matrix", refuse, raising=False)
    for (registry, name), (matrix, value) in zip(cases, expected):
        assert _repr_matrix(*resolve_matrix(registry, name, assignment)) == matrix, name
        assert transmission(registry, name, assignment) == value, name


def test_render_numeric_matrix():
    text = render_numeric_matrix(("A", "B"), [[1.0, 0.25], [0.25, 1.0]])
    assert text == "   A     B\nA  1.0   0.25\nB  0.25  1.0\n"


def test_render_symbolic_matrix():
    matrix = connection_matrix(builtin_fixtures()["psi1"])
    text = render_symbolic_matrix(matrix)
    lines = text.splitlines()
    assert lines[0].split() == ["A", "B", "C", "D"]
    assert lines[1].split() == ["A", "1", "0", "y", "x"]
    assert lines[3] == "C  y  w  1     xbar"
    assert text.endswith("\n")
