from __future__ import annotations

import pytest

from conftest import grid_system

from fuzzchain.algebra import Call, Var, check_grade
from fuzzchain.checks import random_registry
from fuzzchain.errors import BindingError, ParseError, UnknownSystemError
from fuzzchain.rng import SplitMix64
from fuzzchain.systems import (
    FIXTURE_ASSIGNMENT,
    ONE,
    ZERO,
    FuzzySystem,
    SystemRegistry,
    builtin_fixtures,
    connection_matrix,
    format_assignment,
    format_registry,
    parse_assignment,
    parse_registry,
    require_bindings,
    validate_registry,
)

DIAMOND = [
    ("B", "C", Var("w")),
    ("A", "D", Var("x")),
    ("B", "D", Var("z")),
    ("A", "C", Var("y")),
    ("C", "D", Var("xbar")),
]


def edge_atom(system, u, v):
    """The atom on the edge joining u and v, either way round, or None."""
    return next((e.atom for e in system.edges if {e.u, e.v} == {u, v}), None)


def test_build_orders_vertices_terminals_first():
    system = FuzzySystem.build("psi1", "A", "B", DIAMOND)
    assert system.vertices == ("A", "B", "C", "D")
    assert system.input_terminal == "A"
    assert system.output_terminal == "B"


def _seeded_systems(seed):
    """The fixtures, grids and the systems of a seeded random registry."""
    registry = random_registry(SplitMix64(seed), n_systems=4, max_vertices=6, max_edges=12)
    return [*builtin_fixtures(), *(grid_system(k) for k in range(2, 6)), *registry]


def _reference_vertex_order(input_terminal, output_terminal, edges):
    order = []
    for vertex in (input_terminal, output_terminal, *(x for u, v, _ in edges for x in (u, v))):
        if vertex not in order:
            order.append(vertex)
    return tuple(order)


@pytest.mark.parametrize("seed", range(4))
def test_build_orders_terminals_first_then_endpoints_as_met(seed):
    rng = SplitMix64(seed)
    for system in _seeded_systems(seed):
        edges = [(e.u, e.v, e.atom) for e in system.edges]
        shuffled = sorted(edges, key=lambda _: rng.next_u64())
        flipped = [(v, u, atom) for u, v, atom in reversed(edges)]
        for order in (edges, shuffled, flipped):
            # any two distinct vertices may be the terminals, met or not
            ends = (rng.choice(system.vertices), rng.choice(system.vertices))
            for terminals in {(system.input_terminal, system.output_terminal), ends}:
                if terminals[0] == terminals[1]:
                    continue
                built = FuzzySystem.build(system.name, *terminals, order)
                assert built.vertices == _reference_vertex_order(*terminals, order)
                assert [(e.u, e.v, e.atom) for e in built.edges] == order


@pytest.mark.parametrize("seed", range(4))
def test_plan_agrees_with_the_edges(seed):
    for system in _seeded_systems(seed):
        plan, edges = system._plan, system.edges
        assert system._plan is plan  # derived once
        assert plan.us == tuple(system.vertices.index(e.u) for e in edges)
        assert plan.vs == tuple(system.vertices.index(e.v) for e in edges)
        slots = tuple(e.atom if isinstance(e.atom, Call) else e.atom.name for e in edges)
        assert plan.slots == slots
        names = []
        for edge in edges:
            if isinstance(edge.atom, Var) and edge.atom.name not in names:
                names.append(edge.atom.name)
        assert plan.names == tuple(names)
        calls = tuple(e.atom for e in edges if isinstance(e.atom, Call))
        assert plan.calls == calls and system.call_atoms() == calls


def _reference_require_bindings(registry, name, assignment):
    """``require_bindings`` as an edge walk: systems breadth-first, each
    one's edges in declaration order, each variable checked where first met."""
    order = [name]
    grades = {}
    for system_name in order:
        for edge in registry[system_name].edges:
            atom = edge.atom
            if isinstance(atom, Call):
                if atom.target not in order:
                    order.append(atom.target)
            elif assignment is None or atom.name in grades:
                continue
            elif atom.name not in assignment:
                raise BindingError(f"missing binding for variable {atom.name!r}")
            else:
                try:
                    what = f"binding for {atom.name!r}"
                    grades[atom.name] = check_grade(assignment[atom.name], what)
                except ValueError as exc:
                    raise BindingError(str(exc)) from None
    return order, grades


def _binding_outcome(check, registry, name, assignment):
    try:
        order, grades = check(registry, name, assignment)
    except (BindingError, UnknownSystemError) as exc:
        return type(exc).__name__, str(exc)
    return order, [(var, repr(grade)) for var, grade in grades.items()]


BAD_BINDINGS = {
    "out-of-range": 1.5, "negative": -0.25, "bool": True, "text": "0.5", "nan": float("nan")
}


def _with_ghost_call(registry, rng, system_name):
    """A copy of ``registry`` where ``system_name`` also calls an unknown system."""
    out = SystemRegistry()
    for system in registry:
        edges = [(e.u, e.v, e.atom) for e in system.edges]
        if system.name == system_name:
            ghost = (system.input_terminal, f"GHOST{len(edges)}", Call("ghost", rng.below(3)))
            edges.insert(rng.below(len(edges) + 1), ghost)
        terminals = (system.input_terminal, system.output_terminal)
        out.add(FuzzySystem.build(system.name, *terminals, edges))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_require_bindings_reports_what_an_edge_walk_reports(seed):
    rng = SplitMix64(seed)
    registry = random_registry(rng, n_systems=4, max_vertices=6, max_edges=12)
    for root in registry.names():
        reached = _reference_require_bindings(registry, root, None)[0]
        edges = [e for s in reached for e in registry[s].edges]
        variables = [e.atom.name for e in edges if isinstance(e.atom, Var)]
        if not variables:
            continue
        bound = {var: rng.grade() for var in variables}
        faults = ["missing", *BAD_BINDINGS, "ghost"]
        cases = [()] + [(f,) for f in faults] + [
            tuple(rng.choice(faults) for _ in range(rng.randint(2, 4))) for _ in range(6)
        ]
        for case in cases:
            # a fault lands in a callee where the root reaches one
            assignment, broken = dict(bound), registry
            for fault in case:
                system = registry[reached[-1] if rng.chance(2, 3) else rng.choice(reached)]
                if fault == "ghost":
                    broken = _with_ghost_call(broken, rng, system.name)
                    continue
                names = [e.atom.name for e in system.edges if isinstance(e.atom, Var)] or variables
                var = rng.choice(names)
                if fault == "missing":
                    assignment.pop(var, None)
                else:
                    assignment[var] = BAD_BINDINGS[fault]
            for given in (assignment, None):
                got = _binding_outcome(require_bindings, broken, root, given)
                want = _binding_outcome(_reference_require_bindings, broken, root, given)
                assert got == want, case


def test_edge_atom_lookup_is_orientation_free():
    system = FuzzySystem.build("psi1", "A", "B", DIAMOND)
    assert edge_atom(system, "D", "C") == Var("xbar")  # orientation-free lookup
    assert edge_atom(system, "A", "B") is None


def test_build_rejects_bad_shapes():
    with pytest.raises(ValueError, match="terminals must differ"):
        FuzzySystem.build("s", "A", "A", [("A", "B", Var("x"))])
    with pytest.raises(ValueError, match="self-loop at"):
        FuzzySystem.build("s", "A", "B", [("A", "A", Var("x"))])
    with pytest.raises(ValueError, match="duplicate edge"):
        FuzzySystem.build("s", "A", "B", [("A", "B", Var("x")), ("B", "A", Var("y"))])
    with pytest.raises(ValueError, match="invalid identifier"):
        FuzzySystem.build("s!", "A", "B", [("A", "B", Var("x"))])


def test_call_atoms():
    system = FuzzySystem.build(
        "s", "A", "B", [("A", "C", Var("x")), ("C", "B", Call("t", 2))]
    )
    assert system.call_atoms() == (Call("t", 2),)


def test_registry_basics():
    registry = SystemRegistry()
    system = FuzzySystem.build("s", "A", "B", [("A", "B", Var("x"))])
    registry.add(system)
    assert "s" in registry
    assert registry["s"] is system
    assert len(registry) == 1
    with pytest.raises(ValueError, match="duplicate system"):
        registry.add(system)
    with pytest.raises(UnknownSystemError, match="unknown system: 'nope'"):
        registry["nope"]


def test_builtin_fixture_shape():
    registry = builtin_fixtures()
    assert registry.names() == ("psi1", "psi2", "psi3", "psi4", "psi5", "phi", "psi1_rec")
    assert registry.max_declared_count() == 2
    phi = registry["phi"]
    assert edge_atom(phi, "C", "D") == Call("psi1", 1)
    rec = registry["psi1_rec"]
    assert edge_atom(rec, "C", "D") == Call("psi1_rec", 2)
    # the five diamonds and psi1_rec share one topology
    for name in ("psi1", "psi2", "psi3", "psi4", "psi5", "psi1_rec"):
        assert registry[name].vertices == ("A", "B", "C", "D")


def test_builtin_fixture_knobs():
    registry = builtin_fixtures(rec_count=0)
    assert edge_atom(registry["psi1_rec"], "C", "D") == Call("psi1_rec", 0)
    with pytest.raises(ValueError):
        builtin_fixtures(rec_count=-1)


def test_fixture_assignment_values():
    assert FIXTURE_ASSIGNMENT == {"x": 0.3, "y": 0.7, "w": 0.6, "z": 0.8, "xbar": 0.5}


def test_connection_matrix_cells():
    matrix = connection_matrix(builtin_fixtures()["psi1"])
    assert matrix.vertices == ("A", "B", "C", "D")
    text = [[str(c) for c in row] for row in matrix.cells]
    assert text == [
        ["1", "0", "y", "x"],
        ["0", "1", "w", "z"],
        ["y", "w", "1", "xbar"],
        ["x", "z", "xbar", "1"],
    ]
    assert matrix.cells[0][0] is ONE
    assert matrix.cells[0][1] is ZERO


def _cell_by_lookup(system, u, v):
    if u == v:
        return ONE
    atom = edge_atom(system, u, v)
    return ZERO if atom is None else atom


def test_connection_matrix_equals_per_cell_lookup():
    rng = SplitMix64(17)
    for _ in range(40):
        for system in random_registry(rng, n_systems=3, max_vertices=7, max_edges=14):
            matrix = connection_matrix(system)
            assert matrix.vertices == system.vertices
            assert matrix.cells == tuple(
                tuple(_cell_by_lookup(system, u, v) for v in system.vertices)
                for u in system.vertices
            )


def test_registry_text_round_trip():
    registry = builtin_fixtures()
    text = format_registry(registry)
    reparsed = parse_registry(text)
    assert reparsed.names() == registry.names()
    for name in registry.names():
        assert reparsed[name] == registry[name]
    # formatting is a fixpoint
    assert format_registry(reparsed) == text


def test_parse_registry_minimal():
    registry = parse_registry(
        """
        # comment lines and blank lines are fine
        system s {
          terminals A -> B
          edge A C x; edge C B call t 0
        }
        system t {
          terminals A -> B; edge A B y
        }
        """
    )
    assert registry.names() == ("s", "t")
    assert edge_atom(registry["s"], "C", "B") == Call("t", 0)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("wibble {", "expected 'system', got 'wibble'"),
        ("system {", "expected 'system <name> {'"),
        ("system 9bad {", "invalid system name: '9bad'"),
        ("system s {\n}", "system 's' has no terminals clause"),
        ("system s {\nterminals A B\n}", "expected 'terminals <in> -> <out>'"),
        (
            "system s {\nterminals A -> B\nterminals A -> B\n}",
            "duplicate terminals clause",
        ),
        ("system s {\nterminals 1 -> B\n}", "terminal names must be identifiers"),
        ("system s {\nterminals A -> A\n}", "input and output terminals must differ"),
        ("system s {\nterminals A -> B\nedge A x\n}", "expected 'edge <u> <v> <label>'"),
        ("system s {\nterminals A -> B\nedge A 2 x\n}", "edge endpoints must be identifiers"),
        ("system s {\nterminals A -> B\nedge A A x\n}", "self-loop at 'A'"),
        (
            "system s {\nterminals A -> B\nedge A B x\nedge B A y\n}",
            "duplicate edge 'B'-'A'",
        ),
        ("system s {\nterminals A -> B\nedge A B call\n}", "expected 'call <name> <count>'"),
        ("system s {\nterminals A -> B\nedge A B x y z\n}", "invalid edge label"),
        ("system s {\nterminals A -> B\nedge A B call t x\n}", "count not a non-negative"),
        (
            "system s {\nterminals A -> B\nedge A B call t \u00b2\n}",
            "line 3, col 1: count not a non-negative integer: '\u00b2'",
        ),
        pytest.param(
            "system s {\nterminals A -> B\nedge A B call t " + "9" * 5000 + "\n}",
            "line 3, col 1: count too large: 5000 digits",
            id="count-of-5000-digits",
        ),
        ("system s {\nterminals A -> B\nedge A B call 9t 1\n}", "invalid call target: '9t'"),
        ("system s {\nterminals A -> B\nwhatever\n}", "unknown clause: 'whatever'"),
        ("system s {\nterminals A -> B\n", "unterminated system 's'"),
        (
            "system s {\nterminals A -> B\n}\nsystem s {\nterminals A -> B\n}",
            "duplicate system name",
        ),
    ],
)
def test_parse_registry_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_registry(text)
    assert fragment in str(err.value)


def test_parse_registry_reports_position():
    with pytest.raises(ParseError) as err:
        parse_registry("system s {\n  terminals A -> B\n  edge A A x\n}")
    assert err.value.line == 3
    assert "line 3" in str(err.value)

    # an unterminated system points at its own 'system' clause
    text = "system a {\n  terminals A -> B\n}\n\n  system s {\n  terminals A -> B\n"
    with pytest.raises(ParseError, match="unterminated system 's'") as err:
        parse_registry(text)
    assert (err.value.line, err.value.col) == (5, 3)
    assert str(err.value).startswith("line 5, col 3: ")


def test_validate_registry_diagnostics():
    registry = SystemRegistry()
    registry.add(
        FuzzySystem.build("s", "A", "B", [("A", "C", Var("x")), ("C", "B", Call("ghost", 1))])
    )
    registry.add(FuzzySystem.build("t", "A", "B", [("C", "D", Var("y"))]))
    diagnostics = validate_registry(registry)
    rendered = [str(d) for d in diagnostics]
    assert rendered == [
        "error: s: unknown call target 'ghost'",
        "warning: t: disconnected terminal 'A'",
        "warning: t: disconnected terminal 'B'",
    ]
    assert validate_registry(builtin_fixtures()) == []


def test_assignment_text_round_trip():
    text = format_assignment(FIXTURE_ASSIGNMENT)
    assert text == "x = 0.3\ny = 0.7\nw = 0.6\nz = 0.8\nxbar = 0.5\n"
    assert parse_assignment(text) == FIXTURE_ASSIGNMENT


def test_parse_assignment_accepts_comments():
    parsed = parse_assignment("# header\nx = 0.25\n\ny = 1\n")
    assert parsed == {"x": 0.25, "y": 1.0}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("x 0.5", "expected '<var> = <decimal>'"),
        ("2x = 0.5", "invalid variable name: '2x'"),
        ("x = hi", "invalid decimal: 'hi'"),
        ("x = 1.5", "out of range"),
    ],
)
def test_parse_assignment_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_assignment(text)
    assert fragment in str(err.value)
